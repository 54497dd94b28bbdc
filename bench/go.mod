module identxx/bench

go 1.24

require identxx v0.0.0

replace identxx => ../
