// Package scenario holds the virtual-time end-to-end suite: complete
// WS-Gossip deployments — coordinator, disseminators, aggregation services,
// membership overlays, self-clocking Runners — driven deterministically on
// clock.Virtual over a lossy, delaying SOAP fabric. No test here sleeps or
// spawns protocol goroutines of its own: rounds fire from Runner timers,
// messages ride the virtual clock, and every assertion runs after an
// Advance barrier. Convergence budgets come from the analytic models in
// internal/epidemic, so a regression must beat the math to pass.
//
// The suite covers: push dissemination torn by mid-stream loss and closed
// by anti-entropy repair; pull-only rounds; deferred lazy push; node churn
// mid-round; membership-driven dissemination where nodes join and leave
// through view exchanges and no target list exists anywhere
// (core.PeerView); coordinator failover mid-interaction against a
// replicated successor; adaptive quiescence backoff (idle deployments fire
// provably fewer rounds, then snap back on traffic); and push-sum
// aggregation, including under loss. Everything passes
// go test -race -count=5 with byte-identical schedules.
//
// The chaos scenarios (chaos_test.go) additionally assert on the metrics
// plane itself: a healed network bisection must show up as a repair
// retransmit spike that subsides, a slow node's tick cost must be visible
// in its tick-duration histogram and nobody else's, and a rogue sender
// replaying captured envelopes must be isolated by exactly the victim's
// duplicate counter.
//
// The package is test-only. Its fabric (testbed.Bus) and its cluster
// builder (testbed.Nodes, testbed.SimNodes) live in internal/testbed, which
// the experiments and the simulator share.
package scenario
