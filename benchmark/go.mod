module reticle/benchmark

go 1.22

require reticle v0.0.0

replace reticle => ../
