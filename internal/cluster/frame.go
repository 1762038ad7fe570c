// Package cluster is radlocd's replication and failover layer. A
// primary node streams each zone's write-ahead log over an
// authenticated HTTP endpoint to one standby: the body is the WAL's
// own lines, the segment bytes themselves, between a JSON hello frame
// and a JSON end frame. The standby reads them with the WAL's scanner
// and replays them through the same deterministic recovery path a
// reboot uses; because the fusion engine is a pure function of its
// applied record sequence, a caught-up standby holds state
// bit-identical to the primary's. Replication is pull-based — the
// standby drives, and the offset it asks for doubles as its durable
// ack, which in turn parks the primary's WAL pruning floor so a
// lagging replica never loses the suffix it still needs. Split-brain
// is fenced by a monotonic per-zone epoch checked on both ends of
// every pull, and ownership moves between nodes with a checkpoint-ship
// + tail-stream + cutover migration sequence driven by `radloc ctl`.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Control frame types. A replication stream is one hello frame, the
// WAL lines of the shipped records (each reading's line, then its
// refresh entry's line when its WAL has one), and one end frame.
const (
	// FrameHello opens a stream: it carries the primary's current
	// epoch for the zone, its WAL head, the divergence floor, and the
	// offset of the first record shipped. A standby seeing an epoch
	// below its own refuses the whole stream (stale primary).
	FrameHello = "hello"
	// FrameEnd closes a stream and repeats the WAL head so the
	// standby can compute its lag even when no records shipped.
	FrameEnd = "end"
)

// Frame is one decoded control frame.
type Frame struct {
	// Type is FrameHello or FrameEnd.
	Type string `json:"type"`
	// Epoch is the sender's zone epoch.
	Epoch uint64 `json:"epoch,omitempty"`
	// Head is the sender's WAL head — the offset the next append
	// will get.
	Head uint64 `json:"head"`
	// Start is the divergence floor for the puller's epoch (hello
	// frames only): the lowest WAL offset that may carry writes from
	// an epoch newer than the one the puller asked with. A standby
	// holding records at or above it under an older epoch has a
	// diverged suffix that must be quarantined, not replayed over.
	Start uint64 `json:"start,omitempty"`
	// Off is the offset of the first record the stream ships (hello
	// frames only): the pull's from. The records after the hello are
	// numbered by position from it, as a segment file's are from the
	// offset in its name.
	Off uint64 `json:"off,omitempty"`
}

// ErrBadFrame is wrapped by every stream failure: a line that is
// neither a WAL entry nor a control frame, a torn tail, a CRC
// mismatch, a hello that does not start at the standby's head.
// Callers stop applying the stream at the first bad line — everything
// before it is intact (the prefix-safety the WAL's own recovery relies
// on).
var ErrBadFrame = errors.New("cluster: bad replication frame")

// EncodeControl encodes a hello or end frame, newline-terminated. An
// end frame carries no start or off.
func EncodeControl(f Frame) ([]byte, error) {
	if f.Type != FrameHello && f.Type != FrameEnd {
		return nil, fmt.Errorf("cluster: not a control frame type: %q", f.Type)
	}
	if f.Type == FrameEnd && (f.Start != 0 || f.Off != 0) {
		return nil, fmt.Errorf("cluster: end frame cannot carry a start or first offset")
	}
	line, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// DecodeFrame parses one control frame line, its trailing newline
// optional. Every failure wraps ErrBadFrame; no input panics.
func DecodeFrame(line []byte) (Frame, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return Frame{}, fmt.Errorf("%w: empty line", ErrBadFrame)
	}
	var f Frame
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if dec.More() {
		return Frame{}, fmt.Errorf("%w: trailing data after frame", ErrBadFrame)
	}
	switch {
	case f.Type != FrameHello && f.Type != FrameEnd:
		return Frame{}, fmt.Errorf("%w: unknown type %q", ErrBadFrame, f.Type)
	case f.Type == FrameEnd && (f.Start != 0 || f.Off != 0):
		return Frame{}, fmt.Errorf("%w: end frame with start or first offset", ErrBadFrame)
	}
	return f, nil
}
