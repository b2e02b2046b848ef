// Package server is the HTTP front for a blowfish service: it decodes wire
// requests, delegates to a transport-agnostic Service (a single
// service.Core or the shard router), and encodes responses. All domain
// logic — registries, budget accounting, journaling, recovery — lives in
// internal/service; this package owns only routing, content negotiation,
// error-to-status mapping, and request metrics.
package server

import "blowfish/internal/service"

// The wire and configuration vocabulary is defined by internal/service and
// re-exported here so existing callers (cmd/blowfish-serve, the load
// harness, the test suite) keep compiling against server.* names.
type (
	// Config configures a server or service core.
	Config = service.Config
	// DurabilityConfig configures the WAL and snapshot cycle.
	DurabilityConfig = service.DurabilityConfig
	// CheckpointStats reports the outcome of a manual checkpoint.
	CheckpointStats = service.CheckpointStats

	// AttrSpec declares one attribute of a policy domain.
	AttrSpec = service.AttrSpec
	// GraphSpec declares a custom policy graph.
	GraphSpec = service.GraphSpec

	// CreatePolicyRequest is the body of POST /v1/policies.
	CreatePolicyRequest = service.CreatePolicyRequest
	// PolicyResponse describes a registered policy.
	PolicyResponse = service.PolicyResponse
	// CreateDatasetRequest is the body of POST /v1/datasets.
	CreateDatasetRequest = service.CreateDatasetRequest
	// DatasetResponse describes a registered dataset.
	DatasetResponse = service.DatasetResponse
	// EventWire is one event row on the wire.
	EventWire = service.EventWire
	// EventsRequest is the JSON-envelope body of POST /v1/datasets/{id}/events.
	EventsRequest = service.EventsRequest
	// EventsResponse acknowledges an ingest batch.
	EventsResponse = service.EventsResponse
	// CreateSessionRequest is the body of POST /v1/sessions.
	CreateSessionRequest = service.CreateSessionRequest
	// SessionResponse describes a query session.
	SessionResponse = service.SessionResponse
	// ReleaseRecord is one ledger line of a session's release log.
	ReleaseRecord = service.ReleaseRecord
	// HistogramRequest is the body of POST /v1/sessions/{id}/releases/histogram.
	HistogramRequest = service.HistogramRequest
	// HistogramResponse carries a noisy histogram release.
	HistogramResponse = service.HistogramResponse
	// CumulativeRequest is the body of POST /v1/sessions/{id}/releases/cumulative.
	CumulativeRequest = service.CumulativeRequest
	// CumulativeResponse carries a noisy cumulative-histogram release.
	CumulativeResponse = service.CumulativeResponse
	// RangeQuery is one [lo,hi] interval of a range release.
	RangeQuery = service.RangeQuery
	// RangeRequest is the body of POST /v1/sessions/{id}/releases/range.
	RangeRequest = service.RangeRequest
	// RangeResponse carries the answers of a range release.
	RangeResponse = service.RangeResponse
	// ListPoliciesResponse is the GET /v1/policies envelope.
	ListPoliciesResponse = service.ListPoliciesResponse
	// ListDatasetsResponse is the GET /v1/datasets envelope.
	ListDatasetsResponse = service.ListDatasetsResponse
	// ListSessionsResponse is the GET /v1/sessions envelope.
	ListSessionsResponse = service.ListSessionsResponse
	// ListStreamsResponse is the GET /v1/streams envelope.
	ListStreamsResponse = service.ListStreamsResponse
	// EpochSpec declares a stream's epoch schedule.
	EpochSpec = service.EpochSpec
	// WindowSpec declares a stream's sliding retention window.
	WindowSpec = service.WindowSpec
	// CreateStreamRequest is the body of POST /v1/streams.
	CreateStreamRequest = service.CreateStreamRequest
	// StreamResponse describes a continual-release stream.
	StreamResponse = service.StreamResponse
	// EpochReleaseWire is one epoch release on the wire.
	EpochReleaseWire = service.EpochReleaseWire
	// StreamReleasesResponse pages a stream's release log.
	StreamReleasesResponse = service.StreamReleasesResponse
)

// Error codes, mirrored from the service layer.
const (
	CodeBadRequest      = service.CodeBadRequest
	CodeUnknownPolicy   = service.CodeUnknownPolicy
	CodeUnknownDataset  = service.CodeUnknownDataset
	CodeUnknownSession  = service.CodeUnknownSession
	CodeUnknownStream   = service.CodeUnknownStream
	CodeDomainMismatch  = service.CodeDomainMismatch
	CodeBudgetExhausted = service.CodeBudgetExhausted
	CodePolicyInUse     = service.CodePolicyInUse
	CodeDatasetInUse    = service.CodeDatasetInUse
	CodeDurability      = service.CodeDurability
	CodeQueueFull       = service.CodeQueueFull
	CodeInternal        = service.CodeInternal
)
