package penguin

import (
	"penguin/internal/serve"
	"penguin/internal/workload"
)

// HTTP serving tier (internal/serve): the view-object API over HTTP
// with JSON documents and admission control.
type (
	// ServeConfig configures the serving tier: the ShardCluster it
	// serves (one shard is a plain database; its registered objects are
	// what the tier publishes) and the in-flight admission limits (shed
	// with 429 beyond them).
	ServeConfig = serve.Config
	// APIServer routes the view-object HTTP API.
	APIServer = serve.Server
)

// Serving-tier entry points.
var (
	// NewAPIServer builds a handler; mount Handler() yourself.
	NewAPIServer = serve.New
	// StartAPIServer listens on addr and serves until Shutdown.
	StartAPIServer = serve.Start
	// EncodeJSONValue renders a relational value in the tagged wire
	// form that survives a JSON round trip byte-identically.
	EncodeJSONValue = serve.EncodeValue
	// DecodeJSONValue parses the tagged wire form back to a value.
	DecodeJSONValue = serve.DecodeValue
	// InstanceDoc renders a view-object instance as a JSON document.
	InstanceDoc = serve.InstanceDoc
	// InstanceFromDoc rebuilds an instance from a JSON document.
	InstanceFromDoc = serve.InstanceFromDoc
)

// Open-loop load harness (internal/workload): drives the HTTP tier at
// a fixed arrival rate regardless of response latency, so the measured
// quantiles include queueing delay (no coordinated omission).
type (
	// OpenLoopSpec is a load run: target URL, object, arrival rate,
	// duration, read/update mix, and optional latency objectives.
	OpenLoopSpec = workload.OpenLoopSpec
	// OpenLoopResult reports achieved rate, outcome counts, latency
	// quantiles, and any violated objectives.
	OpenLoopResult = workload.OpenLoopResult
)

// RunOpenLoop executes one open-loop run against a serving tier.
var RunOpenLoop = workload.RunOpenLoop
