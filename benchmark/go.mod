module github.com/sinewdata/sinew/benchmark

go 1.22

require github.com/sinewdata/sinew v0.0.0

replace github.com/sinewdata/sinew => ../
