// Package repro is a from-scratch Go reproduction of "A Multithreaded
// Message Passing Environment for ATM LAN/WAN" (Yadav, Reddy, Hariri, Fox;
// NPAC, Syracuse University, 1995): NCS, the NYNET Communication System.
//
// The implementation lives under internal/ — see README.md for a guided
// tour, the package map, and build/test instructions. The heart is
// internal/core: user-level threads plus thread-addressed message passing,
// organized around per-channel QoS — the paper's NCS_init(flow, error)
// configures the default channel, and Proc.Open creates further channels,
// each with its own flow control, error control, and priority, mapped to
// its own ATM virtual circuit in the cell-level carriers. Window flow
// control speaks an absolute-credit protocol (cumulative advertisements
// plus a periodic window sync), so it survives carriers that drop control
// frames as readily as data — no traffic class needs protecting on a
// lossy fabric.
//
// The control plane piggybacks on the data plane (wire format v3): a data
// frame carries its channel's pending credit advertisement and ack as
// optional header words, with a short (1 ms) flush timer falling back to
// standalone — and coalesced — control frames when no reverse data flows.
// The send service drains bursts and hands
// same-destination runs to carriers through transport.BatchSender (one
// scheduler post on Mem, one writev on real TCP, MTU-bounded cell-train
// datagrams on UDP/ATM), and Thread.RecvInto/Channel.RecvInto — the
// paper's receive-into-buffer call — recycles pooled receive frames so
// steady-state traffic allocates nothing.
//
// Threading model: the protocol is implemented once, as lanes, and an
// engine driver decides what runs it. One lane runs on the paper's
// one-send-one-receive system-thread pair per process — the default on a
// single-core host, under every sim harness, and on every carrier
// without a raw-frame path — so lanes=1 is the paper's model by
// construction. On multicore (or with Config.Lanes) a frame-capable
// carrier runs min(GOMAXPROCS, 4) lanes as engine goroutines; every
// channel is pinned to one lane for life (peer-hash by default,
// ChannelConfig.Lane to choose), so FIFO within a channel and
// single-owner discipline state hold. Application sends then complete
// inline; arrivals flow through a per-lane MPSC ring (internal/ring) into
// the engine goroutine, which runs the flow/error tiers and posts wakeups
// back to the cooperative scheduler. The suite runs both drivers in CI
// (-cpu=1,4 under the race detector).
//
// Channels also open dynamically by signaling, the paper's switched
// virtual circuits: Proc.OpenCall runs a blocking SETUP/CONNECT handshake
// through the ATM signaling band (channel 0), the callee admitting or
// refusing each call through Config.Admission (always-admit, token
// bucket, or per-peer cap) and handing admitted channels to
// Config.OnAccept; refusals and dead peers surface as *OpenError with a
// typed CallCause after a bounded, jittered retry schedule
// (CallConfig.SetupTimeout/Retries/Backoff). The lifecycle is
// OPENING → OPEN → CLOSING → CLOSED: Channel.CloseCall drains in-flight
// data on both ends before RELEASE/RELEASE-COMPLETE tear down VC routes,
// discipline timers, and lane state together, sends on a closing channel
// fail uniformly with *ChannelClosedError across all four disciplines,
// and Proc.Lifecycle/Proc.Leaks balance-count every resource so churn
// (the chaos suites run 1000+ open/transfer/close cycles, lossy and
// virtual-time deterministic) must quiesce leak-free.
//
// The failure domain makes peer death a typed, bounded-latency event
// rather than a hang: Config.Heartbeat arms a per-peer detector on the
// channel-0 signaling band (all timers on the Config.After seam, so it
// is deterministic under virtual time), and after Misses silent
// intervals the peer is declared dead — every channel to it force-closes
// through the drain machinery, parked sends, blocked receives, and
// in-flight collectives unblock with *PeerDeadError, VC routes and
// admission slots release, and Proc.Leaks still balances to zero.
// Carriers expose crash/partition/link-flap/blackhole fault injection
// for chaos testing, Proc.Redial wraps OpenCall in a cause-aware
// backoff policy for surviving a peer restart, Config.AcceptQueue turns
// listener overload into bounded backpressure, and
// CallConfig.IdleTimeout scopes the idle reaper per call. BenchmarkFaults
// gates modeled detection latency, typed-error coverage, and zero leaks
// in CI via BENCH_faults.json.
//
// Group communication is tree-structured and channel-aware: core.Group
// (Proc.NewGroup) precomputes a q-nomial tree and dissemination-barrier
// schedule over an agreed member list and pins every collective —
// Barrier, Bcast/BcastInto, Gather, Reduce, AllToAll — to a chosen
// channel, so a synchronization phase rides a high-priority policed VC
// while bulk exchange keeps its own class. GroupConfig.Fanout >= N
// degenerates to the old serial linear algorithms, preserved as the A/B
// baseline; the MPI and PVM filters route their collectives through
// Group. Collective fan-out is enqueued as one burst per hop and both
// sender- and receiver-side message structs recycle through pools, so a
// barrier-plus-broadcast round allocates zero bytes steady-state.
//
// bench_test.go in this directory regenerates every table and figure of
// the paper's evaluation via `go test -bench`, plus a per-channel
// throughput benchmark that emits BENCH_channels.json, an N-procs ×
// K-channels mesh benchmark swept across GOMAXPROCS and lane modes that
// emits BENCH_scale.json, a tree-vs-linear
// collective benchmark that emits BENCH_collectives.json (wall clock on
// Mem plus modeled time on the calibrated NYNET simulation), and a
// many-to-one incast benchmark that emits BENCH_incast.json.
package repro
