module fastsketches/bench

go 1.23

require fastsketches v0.0.0

replace fastsketches => ../
