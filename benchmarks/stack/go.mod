module mpichv/benchmarks/stack

go 1.22

require mpichv v0.0.0

replace mpichv => ../..
