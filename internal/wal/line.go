package wal

import (
	"bufio"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"strings"
)

// The WAL line grammar. A line is a reading or a refresh entry.
// Append and AppendRefresh write exactly these byte shapes and the
// decoders accept exactly these byte shapes, nothing else:
//
//	line    = `{"crc":` u32 `,"rec":` rec `}` "\n"          (a reading)
//	        | `{"crc":` u32 `,"refresh":` ests `}` "\n"     (a refresh entry)
//	rec     = `{"sensorId":` int `,"cpm":` int [`,"step":` int≠0] [`,"seq":` u64≠0] `}`
//	ests    = "[" [est *("," est)] "]"
//	est     = `{"x":` num `,"y":` num `,"strength":` num `,"mass":` num `,"starts":` int `}`
//	num     = the shortest decimal that reads back as the same float64,
//	          spelled as encoding/json spells a float64; finite only
//	int     = ["-"] uint              (Go int range; "-0" is not an int)
//	uint    = "0" | [1-9][0-9]*       (no leading zeros)
//
// crc is CRC-32 (IEEE) over the rec (or ests) bytes as they appear on
// the line. A reading's bytes are the ones encoding/json writes for
// {CRC uint32; Rec json.RawMessage} wrapping a marshaled Record
// (omitempty drops a zero step and seq), so logs written before this
// codec existed decode unchanged; a refresh entry's are the ones it
// writes for {CRC uint32; Refresh json.RawMessage} wrapping a
// marshaled []Estimate. A refresh entry is valid only right after a
// reading: it carries the estimates the engine computed after that
// reading, bit for bit (num reads back to the exact float64 bits, -0
// included).
//
// One exact spelling per entry is what makes every corruption visible:
// a flipped bit either breaks the grammar or the CRC. A line whose CRC
// matches but whose payload is spelled any other way (reordered or
// re-cased keys, "step":0, whitespace, "1e2" for "100") is corrupt.

const (
	linePrefix = `{"crc":`
	recKey     = `,"rec":`
	refreshKey = `,"refresh":`
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
	return closeLine(dst, start, recKey)
}

// appendRefreshLine appends the refresh entry line for ests, trailing
// newline included, to dst. ok is false, and dst comes back unchanged,
// when an estimate holds a NaN or an infinity, which the grammar has
// no spelling for.
func appendRefreshLine(dst []byte, ests []Estimate) (_ []byte, ok bool) {
	start := len(dst)
	dst = append(dst, '[')
	for i, e := range ests {
		for _, v := range [...]float64{e.X, e.Y, e.Strength, e.Mass} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst[:start], false
			}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"x":`...)
		dst = appendFloat(dst, e.X)
		dst = append(dst, `,"y":`...)
		dst = appendFloat(dst, e.Y)
		dst = append(dst, `,"strength":`...)
		dst = appendFloat(dst, e.Strength)
		dst = append(dst, `,"mass":`...)
		dst = appendFloat(dst, e.Mass)
		dst = append(dst, `,"starts":`...)
		dst = strconv.AppendInt(dst, int64(e.Starts), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	return closeLine(dst, start, refreshKey), true
}

// closeLine turns the payload dst[start:] into a whole line: the
// header carries the CRC of the payload bytes just written, so it is
// built second and slid in front of them.
func closeLine(dst []byte, start int, key string) []byte {
	var buf [len(linePrefix) + len("4294967295") + len(refreshKey)]byte
	hdr := append(buf[:0], linePrefix...)
	hdr = strconv.AppendUint(hdr, uint64(crc32.Checksum(dst[start:], crcTable)), 10)
	hdr = append(hdr, key...)
	n := len(dst) - start
	dst = append(dst, hdr...)
	copy(dst[start+len(hdr):], dst[start:start+n])
	copy(dst[start:], hdr)
	return append(dst, "}\n"...)
}

// AppendEntry appends e's WAL lines to dst: the reading's, then the
// refresh entry's when e has one. These are the bytes Append and
// AppendRefresh write for it, so a segment's entries re-encode to the
// segment's own bytes. It fails, with dst unchanged, when e's refresh
// holds a NaN or an infinity.
func AppendEntry(dst []byte, e Entry) ([]byte, error) {
	out := appendLine(dst, e.Rec)
	if e.Refresh == nil {
		return out, nil
	}
	out, ok := appendRefreshLine(out, e.Refresh)
	if !ok {
		return dst, errors.New("wal: refresh entry holds a non-finite estimate")
	}
	return out, nil
}

// lineKind tells apart what a Scanner found on a line.
type lineKind uint8

const (
	badLine     lineKind = iota // no entry: torn, corrupt, too long, or an orphan refresh entry
	readingLine                 // a reading
	refreshLine                 // a refresh entry right after a reading
)

// Scanner reads WAL lines, a segment file's or a replication stream's,
// through one buffer of maxLine bytes, and decodes each. A refresh
// entry counts as one only right after a reading; any other line (an
// orphan refresh entry, a corrupt or over-long line, a stream's
// control frame) is neither a reading nor a refresh entry, and the
// scan goes on past it.
type Scanner struct {
	r        *bufio.Reader
	line     []byte     // the current line, lent from r's buffer
	kind     lineKind   // what line decoded to
	rec      Record     // the reading, when kind is readingLine
	ests     []Estimate // the estimates, when kind is refreshLine; reused
	afterRec bool       // the line before this one was a reading
	err      error
}

// NewScanner returns a Scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReaderSize(r, maxLine)}
}

// Scan advances to the next newline-terminated line and decodes it.
// It returns false at the end of the input, at a last line with no
// newline (a torn tail: Err is io.ErrUnexpectedEOF), and on a read
// error (Err reports it).
func (s *Scanner) Scan() bool {
	// ReadSlice lends the line from the reader's buffer: the valid
	// path copies nothing.
	line, err := s.r.ReadSlice('\n')
	overlong := err == bufio.ErrBufferFull
	for err == bufio.ErrBufferFull {
		// Longer than any valid line: drop the rest of it unread into
		// memory; it is one bad line.
		line = nil
		_, err = s.r.ReadSlice('\n')
	}
	s.line, s.kind = line, badLine
	switch {
	case err == io.EOF && (len(line) > 0 || overlong):
		s.err = io.ErrUnexpectedEOF
	case err != io.EOF:
		s.err = err
	}
	if err != nil {
		return false
	}
	if !overlong {
		if rec, ok := decodeLine(line); ok {
			s.rec, s.kind = rec, readingLine
		} else if s.afterRec {
			if ests, ok := decodeRefreshLine(line, s.ests[:0]); ok {
				s.ests, s.kind = ests, refreshLine
			}
		}
	}
	s.afterRec = s.kind == readingLine
	return true
}

// Bytes returns the current line, newline included, or nil for a line
// over maxLine. After a torn tail it holds the torn bytes. It is valid
// until the next Scan.
func (s *Scanner) Bytes() []byte { return s.line }

// Reading returns the current line's reading; ok is false when the
// line is not one.
func (s *Scanner) Reading() (rec Record, ok bool) { return s.rec, s.kind == readingLine }

// Refresh returns the estimates of the current line's refresh entry;
// ok is false when the line is not one. The slice is valid until the
// next Scan.
func (s *Scanner) Refresh() (ests []Estimate, ok bool) { return s.ests, s.kind == refreshLine }

// Err returns what ended the scan: nil at the end of the input,
// io.ErrUnexpectedEOF at a torn tail, or the read error.
func (s *Scanner) Err() error { return s.err }

// decodeLine parses and checksums one reading line, its trailing
// newline optional. It accepts only the canonical grammar above and
// allocates nothing.
func decodeLine(line []byte) (Record, bool) {
	p, crc, ok := openLine(line, recKey)
	if !ok {
		return Record{}, false
	}
	var rec Record
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
	if !p.lit("}") || !p.closeLine(recStart, crc) {
		return Record{}, false
	}
	return rec, true
}

// decodeRefreshLine parses and checksums one refresh entry line, its
// trailing newline optional, appending its estimates to dst. On
// failure dst comes back at its original length.
func decodeRefreshLine(line []byte, dst []Estimate) ([]Estimate, bool) {
	p, crc, ok := openLine(line, refreshKey)
	if !ok {
		return dst, false
	}
	n := len(dst)
	start := p.i
	if !p.lit("[") {
		return dst, false
	}
	for !p.lit("]") {
		if len(dst) > n && !p.lit(",") {
			return dst[:n], false
		}
		var e Estimate
		if !p.lit(`{"x":`) {
			return dst[:n], false
		}
		if e.X, ok = p.float(); !ok || !p.lit(`,"y":`) {
			return dst[:n], false
		}
		if e.Y, ok = p.float(); !ok || !p.lit(`,"strength":`) {
			return dst[:n], false
		}
		if e.Strength, ok = p.float(); !ok || !p.lit(`,"mass":`) {
			return dst[:n], false
		}
		if e.Mass, ok = p.float(); !ok || !p.lit(`,"starts":`) {
			return dst[:n], false
		}
		if e.Starts, ok = p.int(); !ok || !p.lit("}") {
			return dst[:n], false
		}
		dst = append(dst, e)
	}
	if !p.closeLine(start, crc) {
		return dst[:n], false
	}
	return dst, true
}

// openLine strips line's optional trailing newline and consumes the
// header up to and including key, returning the parser positioned at
// the payload and the header's CRC.
func openLine(line []byte, key string) (lineParser, uint32, bool) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	p := lineParser{b: line}
	if !p.lit(linePrefix) {
		return p, 0, false
	}
	crc, ok := p.uint(math.MaxUint32)
	if !ok || !p.lit(key) {
		return p, 0, false
	}
	return p, uint32(crc), true
}

// closeLine consumes the closing brace that must end the line and
// checks crc against the payload that began at start.
func (p *lineParser) closeLine(start int, crc uint32) bool {
	end := p.i
	if !p.lit("}") || p.i != len(p.b) {
		return false
	}
	return crc32.Checksum(p.b[start:end], crcTable) == crc
}

// lineParser is a cursor over one line for the decoders.
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

// appendFloat appends the finite v as encoding/json spells a float64:
// the shortest decimal that reads back as v, in exponent form only
// below 1e-6 or from 1e21 in magnitude, with a two-digit negative
// exponent's leading zero dropped.
func appendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// float consumes a finite number in its one canonical spelling, the
// one appendFloat writes.
func (p *lineParser) float() (float64, bool) {
	start := p.i
	for p.i < len(p.b) && strings.IndexByte("+-.0123456789e", p.b[p.i]) >= 0 {
		p.i++
	}
	num := p.b[start:p.i]
	if len(num) == 0 || len(num) > 32 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, false
	}
	var buf [32]byte
	if string(appendFloat(buf[:0], v)) != string(num) {
		return 0, false
	}
	return v, true
}
