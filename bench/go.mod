module bips/bench

go 1.22

require bips v0.0.0

replace bips => ../
