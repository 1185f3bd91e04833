module dana/bench

go 1.22

require dana v0.0.0

replace dana => ../
