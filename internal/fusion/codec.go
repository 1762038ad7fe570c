package fusion

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// stateMagic opens every engine-state blob.
const stateMagic = "RLS\x01"

// ErrRetiredState reports an engine state encoded as a JSON document,
// the form checkpoints held before the binary one. It is no longer
// read; DecodeState refuses it by its first byte, which the binary
// form never starts with.
var ErrRetiredState = errors.New("fusion: engine state is a JSON document, a retired format no longer read")

// stateFixed is the binary form's fixed overhead: the magic, the
// header length (uint32) and the particle count (uint64).
const stateFixed = len(stateMagic) + 4 + 8

// EncodeState serializes an engine state for checkpoints and state
// transfer. The four particle arrays, which are nearly all of the
// state, travel as packed little-endian float64; the rest is a small
// JSON header. The layout is
//
//	magic "RLS\x01" | header length uint32 | JSON header |
//	particle count n uint64 | xs[n] ys[n] ss[n] ws[n] as float64 bits
//
// with every integer little-endian. The header is the state with the
// particle arrays left out. The particle arrays must have equal
// lengths; every float64 bit pattern, NaN and -0 included, survives
// the round trip.
func EncodeState(st EngineState) ([]byte, error) {
	loc := st.Localizer
	n := len(loc.Xs)
	if len(loc.Ys) != n || len(loc.Ss) != n || len(loc.Ws) != n {
		return nil, fmt.Errorf("fusion: encode state: particle arrays of %d/%d/%d/%d",
			len(loc.Xs), len(loc.Ys), len(loc.Ss), len(loc.Ws))
	}
	st.Localizer.Xs, st.Localizer.Ys, st.Localizer.Ss, st.Localizer.Ws = nil, nil, nil, nil
	header, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	if len(header) > math.MaxUint32 {
		return nil, errors.New("fusion: encode state: header too large")
	}
	blob := make([]byte, stateFixed+len(header)+32*n)
	p := copy(blob, stateMagic)
	binary.LittleEndian.PutUint32(blob[p:], uint32(len(header)))
	p += 4
	p += copy(blob[p:], header)
	binary.LittleEndian.PutUint64(blob[p:], uint64(n))
	p += 8
	for _, arr := range [4][]float64{loc.Xs, loc.Ys, loc.Ss, loc.Ws} {
		for _, v := range arr {
			binary.LittleEndian.PutUint64(blob[p:], math.Float64bits(v))
			p += 8
		}
	}
	return blob, nil
}

// DecodeState parses a blob written by EncodeState. A JSON document
// fails with ErrRetiredState. The header length and particle count are
// checked against the blob's length before anything is allocated, and
// trailing bytes are an error, so a blob can never make the decoder
// allocate more than its own size implies.
func DecodeState(blob []byte) (EngineState, error) {
	var st EngineState
	if len(blob) > 0 && blob[0] == '{' {
		return EngineState{}, ErrRetiredState
	}
	if !bytes.HasPrefix(blob, []byte(stateMagic)) {
		return EngineState{}, errors.New("fusion: decode state: no engine-state magic")
	}
	if len(blob) < stateFixed {
		return EngineState{}, errors.New("fusion: decode state: truncated")
	}
	hlen := uint64(binary.LittleEndian.Uint32(blob[len(stateMagic):]))
	if hlen > uint64(len(blob)-stateFixed) {
		return EngineState{}, fmt.Errorf("fusion: decode state: header of %d bytes in a %d-byte blob", hlen, len(blob))
	}
	p := len(stateMagic) + 4
	header := blob[p : p+int(hlen)]
	p += int(hlen)
	n := binary.LittleEndian.Uint64(blob[p:])
	p += 8
	if rest := uint64(len(blob) - p); n > rest/32 || 32*n != rest {
		return EngineState{}, fmt.Errorf("fusion: decode state: %d particles in %d bytes", n, rest)
	}
	if err := json.Unmarshal(header, &st); err != nil {
		return EngineState{}, fmt.Errorf("fusion: decode state header: %w", err)
	}
	arrs := [4]*[]float64{&st.Localizer.Xs, &st.Localizer.Ys, &st.Localizer.Ss, &st.Localizer.Ws}
	if n == 0 {
		for _, a := range arrs {
			*a = nil
		}
		return st, nil
	}
	all := make([]float64, 4*n)
	for i := range all {
		all[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[p:]))
		p += 8
	}
	for k, a := range arrs {
		lo := uint64(k) * n
		*a = all[lo : lo+n : lo+n]
	}
	return st, nil
}
