// Package agent implements the distributed runtime of the EUCON
// architecture (paper §4): a centralized controller process (Server)
// connected through TCP feedback lanes to one node agent per processor
// (RunAgent), each hosting a utilization monitor and a rate modulator.
//
// The feedback loop mirrors the paper's sequence: at the end of each
// sampling period every node sends its measured utilization to the
// controller, the controller solves the MPC problem and broadcasts the new
// task rates, and each node's rate modulator applies them. A membership
// layer lets agents join, leave, crash, and rejoin without a controller
// restart.
//
// Node agents in this package carry a synthetic plant — utilization is
// generated from the node's hosted subtasks, the current rates, and an
// execution-time factor with optional noise. This exercises the control
// plane end-to-end over real sockets; full-fidelity scheduling dynamics
// (preemptive RMS, release guard, queueing) live in internal/sim.
package agent

import "time"

// DefaultTimeout bounds every lane send/receive.
const DefaultTimeout = 10 * time.Second
