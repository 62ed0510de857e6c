module wsgossip/bench

go 1.24

require wsgossip v0.0.0

replace wsgossip => ../
