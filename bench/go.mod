module coskq/bench

go 1.22

require coskq v0.0.0

replace coskq => ../
