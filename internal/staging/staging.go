// Package staging implements an in-memory, concurrent data-staging hub
// that sits between the simulation's SENSEI analysis adaptor and N
// independent consumers — the in transit deployment shape the paper
// measures, generalized from one consumer to many.
//
// The hub keeps a ring of published timesteps with reference-counted,
// shared payloads: Publish marshals each step once, cut to the arrays
// its consumers take, into a frame the hub owns, and every consumer is
// served from that frame, so fan-out to eight consumers costs one
// marshal and no further copies.
// Per-consumer cursors walk the ring under one of three backpressure
// policies — SST's block and discard, plus spill:
//
//   - block: the producer waits while queue-depth of this consumer's
//     steps are resident in the hub — queued, being shipped or parked
//     with a session — the paper's synchronous SST semantics, where a
//     slow endpoint is visible as producer-side queue growth. The
//     other two bound undelivered steps only: a step already on the
//     wire cannot be shed.
//   - drop-oldest: the consumer's window is bounded; when it overflows
//     the oldest undelivered step is dropped, keeping the producer at
//     full rate (steady-producer semantics). A window of one
//     (drop-oldest:1) is the visualization consumer that always
//     renders the freshest state.
//   - spill: a bounded window whose overflow demotes to a disk tier
//     (SpillStore, typically an internal/archive archive) instead of
//     being lost, transparently re-read on catch-up — the consumer
//     sees every step, in order, and the producer never blocks.
//
// Consumers may declare an array subset (ConsumerSpec.Arrays, or the
// reader hello's `arrays` field): delivered steps and network frames
// are filtered to the declared arrays — a subset is cut from the
// published frame once and shared by same-subset consumers — except the structure-carrying step, which always travels
// whole. When the producer advertised its array set (SetAdvertised),
// a subset naming an unknown array fails the subscription and, over
// the network, rejects the reader's handshake. Per-consumer shipped
// bytes are accounted in ConsumerStats.WireBytes.
//
// Consumers may likewise negotiate wire compression (ConsumerSpec.Codecs,
// or the reader hello's `codecs` field; any implemented codec is
// served): their network frames are re-encoded through
// per-array codec stages (internal/codec) by a shared StreamEncoder —
// same-codec, same-subset consumers share one encode the way subset
// consumers share one marshal, and every coded frame decodes alone.
// Codecs affect only the wire form: in-process
// consumers, the recording sink, and the spill tier all see the plain
// marshaled frame (see DESIGN.md "Wire compression").
//
// The hub's steady state is allocation-free: marshaled frames lease
// from a refcounted adios.FramePool and recycle when the last
// consumer releases its step reference, the ring compacts in place,
// and the network pumps reuse connection-scoped scratch — so
// sustained publish/consume pressure lands on the wire, not the Go
// allocator (see DESIGN.md "Memory discipline"; the alloc budget is
// gated by TestSteadyStateAllocBudget). Frame bytes obtained through
// StepRef.Frame are valid only until that reference's Release.
//
// Entry points: NewHub/SubscribeSpec/Publish for programmatic use, the
// "staging" and "adios" analysis types (adaptor.go) for Listing-1 XML
// configuration — the second is the paper's direct stream, this hub
// with its consumer set closed to one reader — and Serve (server.go),
// the one server of the adios/SST wire protocol (specified in
// DESIGN.md), to which `internal/intransit` endpoints attach through
// the contact-file rendezvous.
package staging

import (
	"encoding/json"
	"fmt"

	"nekrs-sensei/internal/adios"
)

// Policy selects a consumer's backpressure behaviour.
type Policy int

// The three backpressure policies.
const (
	// Block makes the producer wait while the consumer's resident
	// steps — undelivered or delivered and unreleased — number its
	// queue depth (synchronous SST semantics).
	Block Policy = iota
	// DropOldest bounds the consumer's window, discarding the oldest
	// undelivered step on overflow.
	DropOldest
	// Spill bounds the consumer's in-ring window like DropOldest, but
	// overflowing steps demote to a disk tier (SpillStore) instead of
	// being lost, and are transparently re-read on catch-up: the
	// producer never blocks on this consumer and the consumer still
	// sees every step, in order. Requires a spill store (see
	// Hub.SetSpillFactory / SetSpillDir, or the adaptor's `spill`
	// XML attribute).
	Spill
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case Spill:
		return "spill"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// MarshalJSON renders the policy by name so /statusz documents carry
// "block" rather than an opaque ordinal.
func (p Policy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON parses a policy name, accepting the same spellings as
// ParsePolicy — the decode half of cross-process status reporting.
func (p *Policy) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	got, err := ParsePolicy(s)
	if err != nil {
		return err
	}
	*p = got
	return nil
}

// ParsePolicy parses a policy name as it appears in XML attributes and
// command-line flags: one spelling per policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block", "":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	case "spill":
		return Spill, nil
	}
	return Block, fmt.Errorf("staging: unknown policy %q (want block, drop-oldest or spill; the freshest step alone is drop-oldest:1)", s)
}

// SpillStore is the disk tier behind the Spill policy: evicted steps
// are appended as their marshaled wire frames and read back by record
// id on catch-up. internal/archive's Archive implements it (the
// frames land in a replayable archive). Implementations must be safe
// for one concurrent appender plus readers.
type SpillStore interface {
	adios.FrameSink
	ReadFrameInto(id int64, buf []byte) ([]byte, error)
}

// spillOpener is the registered directory-based spill-store opener
// (set by internal/archive's init), used by SetSpillDir and the XML
// adaptor's `spill` attribute. The indirection keeps staging free of
// an archive dependency while archive builds on staging.
var spillOpener func(dir, consumer string) (SpillStore, error)

// RegisterSpillOpener installs the opener that materializes a spill
// store under dir for a named consumer. Importing internal/archive
// registers its archive-backed opener.
func RegisterSpillOpener(f func(dir, consumer string) (SpillStore, error)) {
	spillOpener = f
}
