module p2go/benchmark

go 1.22

require p2go v0.0.0

replace p2go => ../
