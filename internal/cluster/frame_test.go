package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"radloc/internal/wal"
)

func TestFrameControlRoundTrip(t *testing.T) {
	for _, want := range []Frame{
		{Type: FrameHello, Epoch: 5, Head: 999, Start: 7, Off: 990},
		{Type: FrameEnd, Epoch: 5, Head: 999},
	} {
		line, err := EncodeControl(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(line, []byte("\n")) {
			t.Fatalf("encoded frame not newline-terminated: %q", line)
		}
		f, err := DecodeFrame(line)
		if err != nil {
			t.Fatal(err)
		}
		if f != want {
			t.Fatalf("%s round trip mangled frame: %+v", want.Type, f)
		}
	}
	if _, err := EncodeControl(Frame{Type: "record", Head: 1}); err == nil {
		t.Fatal("EncodeControl accepted a non-control type")
	}
	if _, err := EncodeControl(Frame{Type: FrameEnd, Head: 1, Start: 9}); err == nil {
		t.Fatal("EncodeControl accepted an end frame with a start offset")
	}
	if _, err := EncodeControl(Frame{Type: FrameEnd, Head: 1, Off: 9}); err == nil {
		t.Fatal("EncodeControl accepted an end frame with a first offset")
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	walLine, err := wal.AppendEntry(nil, wal.Entry{Rec: wal.Record{SensorID: 1, CPM: 10}})
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := EncodeControl(Frame{Type: FrameHello, Epoch: 1, Head: 1})
	cases := map[string]string{
		"empty":            "",
		"whitespace":       "   ",
		"not json":         "nonsense",
		"wrong type":       `{"type":"gift","head":1}`,
		"no type":          `{"epoch":1,"head":1}`,
		"trailing data":    strings.TrimSuffix(string(hello), "\n") + `{"x":1}`,
		"a wal line":       string(walLine),
		"end with start":   `{"type":"end","epoch":1,"head":1,"start":2}`,
		"end with off":     `{"type":"end","epoch":1,"head":1,"off":2}`,
		"unknown field":    `{"type":"hello","epoch":1,"head":1,"extra":true}`,
		"retired crc":      `{"type":"hello","epoch":1,"head":1,"off":0,"crc":0}`,
		"bad field values": `{"type":"hello","epoch":"one","head":1}`,
	}
	for name, in := range cases {
		if _, err := DecodeFrame([]byte(in)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
}

func TestParseRoutes(t *testing.T) {
	r, err := ParseRoutes([]byte(`{"zones":{"default":{"primary":"http://a:1","standby":"http://b:2"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Zones["default"].Primary; got != "http://a:1" {
		t.Fatalf("primary = %q", got)
	}
	if names := r.ZoneNames(); len(names) != 1 || names[0] != "default" {
		t.Fatalf("ZoneNames = %v", names)
	}
	for name, in := range map[string]string{
		"bad json":   `{`,
		"bad zone":   `{"zones":{"NOT/valid":{"primary":"http://a"}}}`,
		"no primary": `{"zones":{"ok":{"standby":"http://b"}}}`,
	} {
		if _, err := ParseRoutes([]byte(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
