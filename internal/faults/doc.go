// Package faults is the deterministic, composable fault-injection plane:
// the link faults the scenario suite's virtBus grew ad hoc (loss,
// partition, connection refusal) promoted into one first-class library that
// every harness — the virtual-time scenario bus, the scaled simulator, a
// future testlab driver — shares instead of re-implementing.
//
// The model has three parts:
//
//   - Table: a directional link model. Every rule is per-direction
//     (refuse/cut/loss/delay on from→to says nothing about to→from), so
//     asymmetric failures — the one-way-dead link that makes naive failure
//     detectors falsely suspect healthy peers — are native, not simulated
//     by hand. A NAT matrix marks nodes reachable only from designated
//     relay senders. Every decision is counted per rule, so harnesses
//     assert exact fault↔counter accounting.
//
//   - Plan: a declarative timeline of fault events (see ParsePlan for the
//     grammar) scheduled on a clock.Clock — under clock.Virtual a whole
//     multi-fault composition (partition + churn + loss + delay at once)
//     is one script that replays byte-identically under a seed.
//
//   - Applier: the thin surface a plan drives, binding link rules to a
//     Table and crash/recover ops to whatever fabric hosts the run.
//
// Determinism contract: the Table draws no randomness of its own. Lossy
// consumes exactly one draw from the caller's seeded RNG per send, with or
// without loss configured, so installing a table does not shift the random
// stream the surrounding fabric sees for unaffected traffic.
package faults
