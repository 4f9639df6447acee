module netanomaly/bench

go 1.24

require netanomaly v0.0.0

replace netanomaly => ../
