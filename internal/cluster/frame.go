// Package cluster is radlocd's replication and failover layer. A
// primary node streams each zone's write-ahead log over an
// authenticated HTTP/NDJSON endpoint to one standby, which replays
// the suffix through the same deterministic recovery path a reboot
// uses; because the fusion engine is a pure function of its applied
// record sequence, a caught-up standby holds state bit-identical to
// the primary's. Replication is pull-based — the standby drives, and
// the offset it asks for doubles as its durable ack, which in turn
// parks the primary's WAL pruning floor so a lagging replica never
// loses the suffix it still needs. Split-brain is fenced by a
// monotonic per-zone epoch checked on both ends of every pull, and
// ownership moves between nodes with a checkpoint-ship + tail-stream
// + cutover migration sequence driven by `radloc ctl`.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"radloc/internal/wal"
)

// Frame types carried on the replication stream. A stream is NDJSON:
// one hello frame, zero or more record frames in strictly increasing
// offset order, each followed by the record's refresh frame when its
// WAL has a refresh entry after it, and one end frame.
const (
	// FrameHello opens a stream: it carries the primary's current
	// epoch for the zone and its WAL head. A standby seeing an epoch
	// below its own refuses the whole stream (stale primary).
	FrameHello = "hello"
	// FrameRecord carries one WAL record with its global offset and
	// the same CRC-32 (IEEE) the on-disk log uses.
	FrameRecord = "record"
	// FrameRefresh carries the refresh entry journaled after the
	// record frame just before it: the same offset, the estimates, and
	// the CRC-32 (IEEE) the on-disk log gives them.
	FrameRefresh = "refresh"
	// FrameEnd closes a stream and repeats the WAL head so the
	// standby can compute its lag even when no records shipped.
	FrameEnd = "end"
)

// Frame is one decoded replication stream line.
type Frame struct {
	// Type is FrameHello, FrameRecord, FrameRefresh or FrameEnd.
	Type string
	// Off is the record's global WAL offset (record and refresh
	// frames).
	Off uint64
	// Epoch is the sender's zone epoch (hello frames only).
	Epoch uint64
	// Head is the sender's WAL head — the offset the next append
	// will get (hello and end frames).
	Head uint64
	// Start is the divergence floor for the puller's epoch (hello
	// frames only): the lowest WAL offset that may carry writes from
	// an epoch newer than the one the puller asked with. A standby
	// holding records at or above it under an older epoch has a
	// diverged suffix that must be quarantined, not replayed over.
	Start uint64
	// Rec is the journaled measurement (record frames only).
	Rec wal.Record
	// Refresh is the refresh entry's estimates (refresh frames only;
	// non-nil, empty when the refresh found no source).
	Refresh []wal.Estimate
}

// wireFrame is the JSON shape of every stream line. Record frames
// omit type; control frames omit off/crc/rec; refresh frames carry
// refresh in place of rec.
type wireFrame struct {
	Type    string          `json:"type,omitempty"`
	Epoch   uint64          `json:"epoch,omitempty"`
	Head    uint64          `json:"head"`
	Start   uint64          `json:"start,omitempty"`
	Off     uint64          `json:"off"`
	CRC     uint32          `json:"crc"`
	Rec     json.RawMessage `json:"rec,omitempty"`
	Refresh json.RawMessage `json:"refresh,omitempty"`
}

// ErrBadFrame is wrapped by every DecodeFrame failure: torn lines,
// CRC mismatches, unknown types, garbage JSON. Callers stop applying
// the stream at the first bad frame — everything before it is intact
// (the prefix-safety the WAL's own recovery relies on).
var ErrBadFrame = errors.New("cluster: bad replication frame")

// EncodeRecord encodes one WAL record frame, newline-terminated. The
// CRC covers the raw rec bytes exactly as the on-disk log's does, so
// a bit flip anywhere between the primary's disk and the standby's
// decoder is caught by the same checksum discipline.
func EncodeRecord(off uint64, rec wal.Record) ([]byte, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(wireFrame{Off: off, CRC: crc32.ChecksumIEEE(raw), Rec: raw})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// EncodeRefresh encodes the refresh frame for the record at off,
// newline-terminated. Its estimates, non-nil (empty for a refresh that
// found no source), are spelled as the on-disk log spells them and
// carry the same CRC.
func EncodeRefresh(off uint64, ests []wal.Estimate) ([]byte, error) {
	raw, err := json.Marshal(ests)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(wireFrame{Type: FrameRefresh, Off: off, CRC: crc32.ChecksumIEEE(raw), Refresh: raw})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// EncodeControl encodes a hello or end frame, newline-terminated.
// start is the divergence floor a hello carries; end frames must pass
// zero.
func EncodeControl(typ string, epoch, head, start uint64) ([]byte, error) {
	if typ != FrameHello && typ != FrameEnd {
		return nil, fmt.Errorf("cluster: not a control frame type: %q", typ)
	}
	if typ == FrameEnd && start != 0 {
		return nil, fmt.Errorf("cluster: end frame cannot carry a start offset")
	}
	line, err := json.Marshal(wireFrame{Type: typ, Epoch: epoch, Head: head, Start: start})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// DecodeFrame parses one stream line (without trailing newline).
// Every failure wraps ErrBadFrame; no input panics. Record frames are
// CRC-checked before the record is unmarshalled, so a frame that
// decodes cleanly is byte-authentic.
func DecodeFrame(line []byte) (Frame, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return Frame{}, fmt.Errorf("%w: empty line", ErrBadFrame)
	}
	var wf wireFrame
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wf); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if dec.More() {
		return Frame{}, fmt.Errorf("%w: trailing data after frame", ErrBadFrame)
	}
	switch wf.Type {
	case FrameHello, FrameEnd:
		if wf.Rec != nil || wf.Refresh != nil || wf.CRC != 0 || wf.Off != 0 {
			return Frame{}, fmt.Errorf("%w: control frame with record fields", ErrBadFrame)
		}
		if wf.Type == FrameEnd && wf.Start != 0 {
			return Frame{}, fmt.Errorf("%w: end frame with start offset", ErrBadFrame)
		}
		return Frame{Type: wf.Type, Epoch: wf.Epoch, Head: wf.Head, Start: wf.Start}, nil
	case "":
		if wf.Rec == nil || wf.Refresh != nil {
			return Frame{}, fmt.Errorf("%w: record frame without rec", ErrBadFrame)
		}
		if wf.Epoch != 0 || wf.Head != 0 || wf.Start != 0 {
			return Frame{}, fmt.Errorf("%w: record frame with control fields", ErrBadFrame)
		}
		if crc32.ChecksumIEEE(wf.Rec) != wf.CRC {
			return Frame{}, fmt.Errorf("%w: crc mismatch at off %d", ErrBadFrame, wf.Off)
		}
		var rec wal.Record
		rdec := json.NewDecoder(bytes.NewReader(wf.Rec))
		rdec.DisallowUnknownFields()
		if err := rdec.Decode(&rec); err != nil {
			return Frame{}, fmt.Errorf("%w: bad record at off %d: %v", ErrBadFrame, wf.Off, err)
		}
		return Frame{Type: FrameRecord, Off: wf.Off, Rec: rec}, nil
	case FrameRefresh:
		if wf.Refresh == nil || wf.Rec != nil || wf.Epoch != 0 || wf.Head != 0 || wf.Start != 0 {
			return Frame{}, fmt.Errorf("%w: refresh frame without refresh, or with other fields", ErrBadFrame)
		}
		if crc32.ChecksumIEEE(wf.Refresh) != wf.CRC {
			return Frame{}, fmt.Errorf("%w: crc mismatch in refresh at off %d", ErrBadFrame, wf.Off)
		}
		var ests []wal.Estimate
		rdec := json.NewDecoder(bytes.NewReader(wf.Refresh))
		rdec.DisallowUnknownFields()
		if err := rdec.Decode(&ests); err != nil || ests == nil {
			return Frame{}, fmt.Errorf("%w: bad refresh at off %d: %v", ErrBadFrame, wf.Off, err)
		}
		return Frame{Type: FrameRefresh, Off: wf.Off, Refresh: ests}, nil
	default:
		return Frame{}, fmt.Errorf("%w: unknown type %q", ErrBadFrame, wf.Type)
	}
}
