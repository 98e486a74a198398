package engine

import "fmt"

// EnableStatsPublication only validates period: the stats tables fill
// when read, so there is nothing to publish. It is kept for callers
// written against the periodic publication it used to install.
func (n *Node) EnableStatsPublication(period float64) error {
	if period <= 0 {
		return fmt.Errorf("engine: stats publication period must be positive, got %g", period)
	}
	return nil
}
