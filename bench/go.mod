module graphgen/bench

go 1.22

require graphgen v0.0.0

replace graphgen => ../
