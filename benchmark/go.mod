module rrr/benchmark

go 1.22

require rrr v0.0.0

replace rrr => ../
