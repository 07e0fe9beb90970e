module charmgo/bench

go 1.22

require charmgo v0.0.0

replace charmgo => ../
