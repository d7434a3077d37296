module pvcagg/bench

go 1.24

require pvcagg v0.0.0

replace pvcagg => ../
