package kset

import (
	"errors"

	"kset/internal/kerr"
	"kset/internal/shard"
)

// Sentinel errors shared by every constructor and run entry point of the
// package; classify with errors.Is. Each sentinel's comment lists exactly
// the entry points that return errors wrapping it.
var (
	// ErrBadParams marks invalid problem or condition parameters
	// (n, t, k, d, ℓ, x, m ranges, mismatched dimensions, nil conditions).
	//
	// Returned by: New (missing or out-of-range Params, condition/executor
	// mismatch) and everything that constructs a System internally —
	// RunSweep on a bad SweepPoint; the condition constructors
	// NewMaxCondition, NewMinCondition, NewExplicitCondition (bad n, m, ℓ
	// or x); the counting functions ConditionSize, ConditionFraction (bad
	// n, m, ℓ or x out of 0 ≤ x < n); Asynchronous runs (bad n, x,
	// condition dimensions, or more crashes than x); and the
	// fault plane — runs whose Scenario.Faults plan fails validation
	// (out-of-range rates, bad process IDs, scheduled delays without a
	// delay bound).
	ErrBadParams = kerr.ErrBadParams

	// ErrDomainTooLarge marks a value domain beyond the 64-value cap of
	// the bitmask value sets, or an input value past it.
	//
	// Returned by: NewMaxCondition, NewMinCondition and
	// NewExplicitCondition when m > 64 — the only entry points that fix a
	// value domain. It is a sibling of ErrBadParams: domain-capped
	// conditions are the representation invariant the whole module's
	// allocation-free value sets rest on.
	ErrDomainTooLarge = kerr.ErrDomainTooLarge

	// ErrBadInput marks a malformed input vector for a run: wrong length,
	// ⊥ entries, or values outside the proposable range.
	//
	// Returned by: System.Run and System.RunScenario — everything that
	// accepts a per-run input vector; in a campaign it is a counted error
	// (CampaignStats.Errors) and the campaign keeps going. Constructors
	// never return it.
	ErrBadInput = kerr.ErrBadInput

	// ErrBadFrame marks a malformed wire datagram: wrong version byte,
	// truncation, trailing garbage, out-of-range fields, or a payload
	// that is not in canonical encoding. The wire decoders never panic on
	// arbitrary bytes — they return errors wrapping this sentinel.
	//
	// Returned by: runs of a System configured with WithTransport whose
	// transport surfaces a codec failure, and (wrapped) by the frame
	// codec in internal/wire that cmd/ksetpeer is built on. On a healthy
	// deployment it indicates a foreign or corrupted datagram arriving on
	// a peer's port; such frames are dropped and counted, not decoded.
	ErrBadFrame = kerr.ErrBadFrame

	// ErrCampaignClosed is returned by Campaign.SubmitAll after Wait,
	// which closes the campaign.
	ErrCampaignClosed = errors.New("kset: campaign closed")

	// ErrUnsizedSource marks a scenario source whose Size is unknown where
	// sharding needs one: index ranges only partition streams of known
	// length.
	//
	// Returned by: ShardSource on an unsized source, and
	// System.RunCheckpointed when started fresh (resume == nil) over one —
	// resuming needs no size, the checkpoint's cursor carries it.
	ErrUnsizedSource = errors.New("kset: source size unknown")

	// ErrBadCheckpoint marks a checkpoint or cursor that failed decoding
	// or validation: malformed JSON, unknown fields, trailing bytes, a
	// version this build does not read, a cursor, progress count and
	// stats snapshot that contradict each other, or a stats snapshot
	// holding a null breakdown group.
	//
	// Returned by: DecodeCheckpoint on any such input, EncodeCheckpoint on
	// an envelope that fails validation, and System.RunCheckpointed when
	// handed an invalid resume checkpoint or one whose cursor runs past
	// the (sized) source it is resumed over.
	ErrBadCheckpoint = shard.ErrBadCheckpoint
)
