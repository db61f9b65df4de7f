// Package storage provides the full node's pluggable block store: an
// ordered, append-only sequence of opaque records, one per committed
// block. The core layer serializes each (Block, BlockADS) pair into one
// record at commit time, so a durable backend persists the chain — and
// the expensive-to-rebuild ADS bodies — incrementally as blocks are
// mined.
//
// Log is the durable implementation: an append-only segmented log on
// disk with per-record CRC framing, fsync-on-commit durability, and
// crash recovery that truncates to the last valid record. Null is the
// no-persistence backend of plain in-memory nodes.
//
// Backends store bytes, not blocks: they know nothing about chain
// validation, which stays in the core commit path.
package storage

import (
	"errors"
	"fmt"
)

// ErrOutOfRange is returned by Read for an index not in [0, Len()).
var ErrOutOfRange = errors.New("storage: record index out of range")

// ErrCorruptRecord is returned by Read when a record's payload fails
// its CRC32-C. It means bit-rot or tampering, not a transient IO
// failure: retrying the same read cannot succeed.
var ErrCorruptRecord = errors.New("storage: corrupt record")

// Backend is an ordered, append-only store of opaque records. Record i
// holds the chain entry at height i. Implementations must be safe for
// concurrent use, though the core commit path already serializes
// writes.
type Backend interface {
	// Len returns the number of committed records.
	Len() int
	// Append durably commits data as record number Len(). For durable
	// backends the record must survive a process crash once Append
	// returns.
	Append(data []byte) error
	// Read returns record i. The returned slice must not be mutated by
	// the caller.
	Read(i int) ([]byte, error)
	// Truncate discards records n.. so that Len() == n afterwards. It
	// is the rollback half of a commit whose in-RAM publish failed, and
	// how a sharded reopen drops records stranded above the restored
	// height. Truncating beyond Len() is an error.
	Truncate(n int) error
	// Close releases resources. A closed backend rejects further use.
	Close() error
}

// Ephemeral marks backends that retain nothing. The commit pipeline
// skips record serialization entirely for them — an ephemeral node
// pays zero persistence overhead.
type Ephemeral interface {
	Backend
	// EphemeralStore is a marker; it does nothing.
	EphemeralStore()
}

// Null is the no-persistence backend: appends are acknowledged and
// discarded. It backs plain in-memory nodes (core.NewFullNode), which
// keep their own decoded chain state and gain nothing from a second,
// serialized copy.
type Null struct{}

// NewNull returns the no-persistence backend.
func NewNull() Null { return Null{} }

// EphemeralStore implements Ephemeral.
func (Null) EphemeralStore() {}

// Len implements Backend: a Null retains nothing.
func (Null) Len() int { return 0 }

// Append implements Backend by discarding the record.
func (Null) Append([]byte) error { return nil }

// Read implements Backend; nothing is ever retained.
func (Null) Read(i int) ([]byte, error) {
	return nil, fmt.Errorf("%w: %d of 0", ErrOutOfRange, i)
}

// Truncate implements Backend.
func (Null) Truncate(n int) error {
	if n != 0 {
		return fmt.Errorf("%w: truncate to %d of 0", ErrOutOfRange, n)
	}
	return nil
}

// Close implements Backend.
func (Null) Close() error { return nil }
