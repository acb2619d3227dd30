module dbproc/benchmark

go 1.22

require dbproc v0.0.0

replace dbproc => ../
