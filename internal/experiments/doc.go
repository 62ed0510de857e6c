// Package experiments regenerates every experiment table: E0 (the paper's
// Figure 1 flow) plus the claim-validation experiments E1–E11 and the
// ablations A1–A3. Each experiment returns printable tables; the same code
// backs cmd/wsgossip-bench and the root testing.B benchmarks, so every
// number in the tables is regenerable with one command.
//
// Key types: Experiment (ID, title, Run), Registry (lookup by ID), Table
// (the printable result shape). The experiments pin the reproduction to the
// paper's claims: scalability (E1), coverage vs fanout (E2), resilience vs
// the WS-Notification baseline (E3), throughput under perturbation vs
// Bimodal Multicast (E4, pbcast run as a gossip.Engine configuration against
// an ACK-based multicast, ackmc.go), load balance (E5), parameter tables vs the
// analytic model (E6), middleware overhead (E7), distributed coordinators
// (E8), churn (E9), aggregation (E10), and receiver-bound fan-in (E11).
// All runs are seeded and deterministic.
package experiments
