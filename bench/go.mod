module bprom/bench

go 1.24

require bprom v0.0.0

replace bprom => ../
