package wal

import (
	"hash/crc32"
	"math"
	"strconv"
)

// The WAL line grammar. Append writes exactly this byte shape and
// decodeLine accepts exactly this byte shape, nothing else:
//
//	line = `{"crc":` u32 `,"rec":` rec `}` "\n"
//	rec  = `{"sensorId":` int `,"cpm":` int [`,"step":` int≠0] [`,"seq":` u64≠0] `}`
//	int  = ["-"] uint              (Go int range; "-0" is not an int)
//	uint = "0" | [1-9][0-9]*       (no leading zeros)
//
// crc is CRC-32 (IEEE) over the rec bytes as they appear on the line.
// These are the bytes encoding/json writes for {CRC uint32; Rec
// json.RawMessage} wrapping a marshaled Record (omitempty drops a zero
// step and seq), so logs written before this codec existed decode
// unchanged. One exact spelling per record is also what makes every
// corruption visible: a flipped bit either breaks the grammar or the
// CRC. A line whose CRC matches but whose rec is spelled any other way
// (reordered or re-cased keys, "step":0, whitespace) is corrupt.

const (
	linePrefix = `{"crc":`
	recKey     = `,"rec":`
)

// appendLine appends rec's WAL line, trailing newline included, to dst.
func appendLine(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, `{"sensorId":`...)
	dst = strconv.AppendInt(dst, int64(rec.SensorID), 10)
	dst = append(dst, `,"cpm":`...)
	dst = strconv.AppendInt(dst, int64(rec.CPM), 10)
	if rec.Step != 0 {
		dst = append(dst, `,"step":`...)
		dst = strconv.AppendInt(dst, int64(rec.Step), 10)
	}
	if rec.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, rec.Seq, 10)
	}
	dst = append(dst, '}')

	// The header carries the CRC of the rec bytes just written, so it is
	// built second and slid in front of them.
	var buf [len(linePrefix) + len("4294967295") + len(recKey)]byte
	hdr := append(buf[:0], linePrefix...)
	hdr = strconv.AppendUint(hdr, uint64(crc32.Checksum(dst[start:], crcTable)), 10)
	hdr = append(hdr, recKey...)
	n := len(dst) - start
	dst = append(dst, hdr...)
	copy(dst[start+len(hdr):], dst[start:start+n])
	copy(dst[start:], hdr)
	return append(dst, "}\n"...)
}

// decodeLine parses and checksums one WAL line, its trailing newline
// optional. It accepts only the canonical grammar above and allocates
// nothing.
func decodeLine(line []byte) (Record, bool) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	p := lineParser{b: line}
	var rec Record
	if !p.lit(linePrefix) {
		return Record{}, false
	}
	crc, ok := p.uint(math.MaxUint32)
	if !ok || !p.lit(recKey) {
		return Record{}, false
	}
	recStart := p.i
	if !p.lit(`{"sensorId":`) {
		return Record{}, false
	}
	if rec.SensorID, ok = p.int(); !ok || !p.lit(`,"cpm":`) {
		return Record{}, false
	}
	if rec.CPM, ok = p.int(); !ok {
		return Record{}, false
	}
	if p.lit(`,"step":`) {
		if rec.Step, ok = p.int(); !ok || rec.Step == 0 {
			return Record{}, false
		}
	}
	if p.lit(`,"seq":`) {
		if rec.Seq, ok = p.uint(math.MaxUint64); !ok || rec.Seq == 0 {
			return Record{}, false
		}
	}
	if !p.lit("}") {
		return Record{}, false
	}
	recEnd := p.i
	if !p.lit("}") || p.i != len(line) {
		return Record{}, false
	}
	if crc32.Checksum(line[recStart:recEnd], crcTable) != uint32(crc) {
		return Record{}, false
	}
	return rec, true
}

// lineParser is a cursor over one line for decodeLine.
type lineParser struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (p *lineParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// uint consumes a canonical unsigned decimal no greater than max.
func (p *lineParser) uint(max uint64) (uint64, bool) {
	start := p.i
	var v uint64
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
		p.i++
	}
	switch n := p.i - start; {
	case n == 0, n > 1 && p.b[start] == '0':
		return 0, false
	}
	return v, true
}

// int consumes a canonical signed decimal in the range of Go's int
// (int64 on 64-bit platforms). "-0" is refused: encoding/json never
// writes it.
func (p *lineParser) int() (int, bool) {
	if !p.lit("-") {
		v, ok := p.uint(math.MaxInt)
		return int(v), ok
	}
	v, ok := p.uint(math.MaxInt + 1)
	if !ok || v == 0 {
		return 0, false
	}
	return int(-v), true
}
