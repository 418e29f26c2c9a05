module jetstream/benchmark

go 1.22

require jetstream v0.0.0

replace jetstream => ../
