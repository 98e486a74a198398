package bench

import "testing"

// TestPerHostMemoryBudget pins the per-host install footprint at 1k
// nodes under the documented budget. The margin is deliberately tight:
// retaining private plans again (+~90 KB/host) or any comparable
// per-node regression fails the test. Heap sampling has some noise, so
// the assertion sits on the documented budget, not the measured mean.
func TestPerHostMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node heap probe")
	}
	perHost, err := installBytesPerHost(1000, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("install footprint: %d bytes/host (budget %d)", perHost, ScaleInstallBudgetBytes)
	if perHost > ScaleInstallBudgetBytes {
		t.Fatalf("install footprint %d bytes/host exceeds the %d-byte budget",
			perHost, ScaleInstallBudgetBytes)
	}
}

// TestSharedPlanReduction pins the >=5x program-instantiation saving
// the scale sweep gates on, at a test-sized probe.
func TestSharedPlanReduction(t *testing.T) {
	shared, err := planBytesPerHost(64, false)
	if err != nil {
		t.Fatal(err)
	}
	private, err := planBytesPerHost(64, true)
	if err != nil {
		t.Fatal(err)
	}
	if shared <= 0 || float64(private)/float64(shared) < ScaleMinPlanReduction {
		t.Fatalf("plan bytes/host shared=%d private=%d, want >= %.0fx reduction",
			shared, private, ScaleMinPlanReduction)
	}
}
