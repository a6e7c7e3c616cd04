module hiengine/benchmark

go 1.22

require hiengine v0.0.0

replace hiengine => ../
