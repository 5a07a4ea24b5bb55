module mcpaxos/bench

go 1.24

require mcpaxos v0.0.0

replace mcpaxos => ../
