module repro/tools/reach

go 1.24
