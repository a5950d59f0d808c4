module lotusx/benchmark

go 1.22

require lotusx v0.0.0

replace lotusx => ../
