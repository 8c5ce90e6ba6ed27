package main

// sizes are the workload dimensions. fullSizes is frozen: changing any field
// changes what the numbers mean, so it is a change to the benchmark, never
// part of a change that claims a gain. smokeSizes exists so `go test` can run
// every workload end to end in a few seconds.
type sizes struct {
	// enforceValidity makes a workload's validity property (cached share,
	// slow-path share, ...) count as a failure when it does not hold. Off at
	// smoke sizes, where a 24-member exchange may compile no rule of the
	// kind the property needs.
	enforceValidity bool

	// Shared ixp200 input: workload.GenerateExchange(participants, prefixes)
	// plus workload.DefaultPolicyMix().
	participants, prefixes int

	setups int // stacks built per run; setup_s is their median

	// burst_converge / churn_sustained
	burstCap      int // Table-1 burst sizes capped here: one fast-path push must fit the 0xf000-0xfffe band
	warmupBursts  int // driven during setup so the fast-path memo is warm
	reoptBursts   int // burst_converge: background stage every this many bursts, off the clock
	probesPerOp   int // probe frames per oracle check
	windowBursts  int // churn_sustained: bursts written back to back per window
	windowsInPipe int // churn_sustained: windows kept in flight
	reoptEvents   int // churn_sustained: background stage every this many events, on the clock

	// The two workloads with SetBase's diff-push on the clock —
	// policy_recompile and churn_sustained — run on a half-size exchange
	// (same generator, same policy mix). On ixp200 one diff-push in two
	// takes over a second: it sends thousands of strict deletes and the
	// switch rebuilds its match index for each. A ten-second window then
	// yields ~14 recompilations in two modes a factor ten apart, or five
	// churn cycles, and no statistic of so few repeats.
	smallParticipants, smallPrefixes int

	// policy_recompile
	recompileProbes int

	// rib_ingest
	dfzMembers, dfzPrefixes int
	ribChunk                int // routes per timed chunk (one sentinel each)

	// forward_*
	ingressPorts   int // members traffic enters on
	flowsPerPort   int // flows per ingress port = frames per InjectBatch call; hot: ingressPorts*flowsPerPort flows, inside the 8192-slot microflow cache
	coldClients    int // forward_cold: distinct clients cycled through
	churnFrames    int // forward_churn: one fast-path rule batch installed every this many frames
	churnBaseEvery int // forward_churn: base table re-installed every this many installs
	churnBatches   int // forward_churn: recorded fast-path rule batches cycled through
	replayBatches  int // traced runs: batches replayed through decode/lookup
}

var fullSizes = sizes{
	enforceValidity: true,
	participants:    200, prefixes: 10000,
	setups:   3,
	burstCap: 100, warmupBursts: 50, reoptBursts: 50, probesPerOp: 8,
	windowBursts: 16, windowsInPipe: 2, reoptEvents: 300,
	smallParticipants: 100, smallPrefixes: 5000,
	recompileProbes: 64,
	dfzMembers:      50, dfzPrefixes: 100000, ribChunk: 10000,
	ingressPorts: 16, flowsPerPort: 256,
	coldClients: 1 << 20,
	churnFrames: 50000, churnBaseEvery: 100, churnBatches: 64,
	replayBatches: 256,
}

var smokeSizes = sizes{
	participants: 24, prefixes: 600,
	setups:   1,
	burstCap: 20, warmupBursts: 4, reoptBursts: 8, probesPerOp: 4,
	windowBursts: 8, windowsInPipe: 2, reoptEvents: 100,
	smallParticipants: 24, smallPrefixes: 600,
	recompileProbes: 16,
	dfzMembers:      8, dfzPrefixes: 2000, ribChunk: 500,
	ingressPorts: 4, flowsPerPort: 64,
	coldClients: 1 << 14,
	churnFrames: 2000, churnBaseEvery: 4, churnBatches: 8,
	replayBatches: 8,
}
