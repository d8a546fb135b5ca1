// Package stardust is a from-scratch Go reproduction of "Stardust: Divide
// and Conquer in the Data Center Network" (Zilberman, Bracha, Schzukin;
// NSDI 2019).
//
// Stardust splits the data-center network into two device classes:
//
//   - Fabric Adapters at the edge (internal/core.FabricAdapter): packet
//     processing, virtual output queues, credit-scheduled egress, cell
//     fragmentation with packet packing, and out-of-order reassembly.
//   - Fabric Elements in the fabric (internal/core.FabricElement): simple
//     cell switches with reachability-driven self-routing tables, per-link
//     shallow queues, FCI congestion marking, and per-cell load balancing.
//
// The repository reproduces the paper's full evaluation:
//
//   - internal/topo, internal/analytic: the scalability, cost, power, area
//     and resilience models (Fig 2, Fig 3, Fig 10d, Fig 11, Table 2,
//     Appendix A/B/C/D/E).
//   - internal/device: the NetFPGA data-path throughput experiment
//     (Fig 8).
//   - internal/core: the event-driven device model and the single-tier
//     system measurement (§6.1.2).
//   - internal/fabricsim + internal/queueing: the two-tier cell fabric
//     simulation with its M/D/1 reference (Fig 9, §4.2.1).
//   - internal/fabric: the per-link cell fabric — one data plane over any
//     topo.Graph (the paper's Clos, Space Shuffle, star-replaced) on a
//     parsim engine of any shard count, with the §5.8 reach protocol as
//     the Clos control plane and a delayed route recompute on the other
//     graphs.
//   - internal/netsim + internal/tcp: an htsim-equivalent packet simulator
//     with TCP NewReno, DCTCP, DCQCN, MPTCP and a Stardust substrate model
//     (Fig 10a-c, §6.3).
//   - internal/experiments: one entry point per table/figure, used by the
//     cmd/ tools and the benchmarks in bench_test.go.
//
// See DESIGN.md for the system inventory and substitutions, and
// EXPERIMENTS.md for paper-vs-measured results.
package stardust
