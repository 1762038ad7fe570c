package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"radloc/internal/obs"
)

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := Or(nil)
	path := filepath.Join(dir, "x.txt")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := fsys.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := fsys.Truncate(path, 2); err != nil {
		t.Fatal(err)
	}
	fi, err := fsys.Stat(path)
	if err != nil || fi.Size() != 2 {
		t.Fatalf("Stat after truncate: %v, %v", fi, err)
	}
}

func TestFaultyWriteWindow(t *testing.T) {
	dir := t.TempDir()
	fa := NewFaulty(nil, FaultConfig{Seed: 1})
	path := filepath.Join(dir, "w.txt")
	f, err := fa.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("ok\n")); err != nil {
		t.Fatalf("pre-window write: %v", err)
	}
	fa.FailWrites(nil, false)
	if _, err := f.Write([]byte("fail\n")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("window write err = %v, want ENOSPC", err)
	}
	fa.Heal()
	if _, err := f.Write([]byte("ok2\n")); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "ok\nok2\n" {
		t.Fatalf("file = %q", b)
	}
	if st := fa.Stats(); st.Writes != 1 || st.Torn != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultyTornWriteLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	fa := NewFaulty(nil, FaultConfig{Seed: 7})
	path := filepath.Join(dir, "torn.txt")
	f, err := fa.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fa.FailWrites(syscall.ENOSPC, true)
	payload := []byte("0123456789abcdef\n")
	n, err := f.Write(payload)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("torn write landed %d of %d bytes; want strict prefix", n, len(payload))
	}
	b, _ := os.ReadFile(path)
	if len(b) != n || !strings.HasPrefix(string(payload), string(b)) {
		t.Fatalf("on-disk %q is not the reported %d-byte prefix", b, n)
	}
	if st := fa.Stats(); st.Torn != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultySyncAndReadWindows(t *testing.T) {
	dir := t.TempDir()
	fa := NewFaulty(nil, FaultConfig{Seed: 3})
	path := filepath.Join(dir, "s.txt")
	if err := os.WriteFile(path, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fa.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fa.FailSyncs(nil)
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync err = %v, want EIO", err)
	}
	fa.FailReads(nil)
	if _, err := fa.ReadFile(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("read err = %v, want EIO", err)
	}
	fa.Heal()
	if err := f.Sync(); err != nil {
		t.Fatalf("post-heal sync: %v", err)
	}
	if _, err := fa.ReadFile(path); err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
}

func TestFaultyOpenWindowIsScopedToADirectory(t *testing.T) {
	dir := t.TempDir()
	sick, well := filepath.Join(dir, "sick"), filepath.Join(dir, "sick-not")
	for _, d := range []string{filepath.Join(sick, "sub"), well} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	fa := NewFaulty(nil, FaultConfig{Seed: 5})
	fa.FailOpensUnder(sick, nil)
	for _, p := range []string{sick, filepath.Join(sick, "sub", "f")} {
		if _, err := fa.OpenFile(p, os.O_CREATE|os.O_RDONLY, 0o644); !errors.Is(err, syscall.EIO) {
			t.Fatalf("OpenFile(%s) err = %v, want EIO", p, err)
		}
	}
	if _, err := fa.Open(sick); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Open(%s) err = %v, want EIO", sick, err)
	}
	for _, p := range []string{dir, well} {
		f, err := fa.Open(p)
		if err != nil {
			t.Fatalf("Open(%s) outside the window: %v", p, err)
		}
		f.Close()
	}
	if st := fa.Stats(); st.Opens != 3 {
		t.Fatalf("stats = %+v, want 3 opens", st)
	}
	fa.Heal()
	f, err := fa.Open(sick)
	if err != nil {
		t.Fatalf("post-heal open: %v", err)
	}
	f.Close()
}

func TestFaultyDeterministicSequence(t *testing.T) {
	run := func() FaultStats {
		dir := t.TempDir()
		fa := NewFaulty(nil, FaultConfig{Seed: 42, WriteErrProb: 0.3, TornWriteProb: 0.5})
		f, err := fa.OpenFile(filepath.Join(dir, "d.txt"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i := 0; i < 200; i++ {
			_, _ = f.Write([]byte("a line of payload\n"))
		}
		return fa.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Writes == 0 || a.Torn == 0 {
		t.Fatalf("probabilistic faults never fired: %+v", a)
	}
}

// TestFaultyMetadataOpsFailOnlyInWindow: WriteErrProb is drawn by file
// writes alone. MkdirAll, Rename and CreateTemp succeed at any write
// probability and fail only inside a FailWrites window.
func TestFaultyMetadataOpsFailOnlyInWindow(t *testing.T) {
	dir := t.TempDir()
	fa := NewFaulty(nil, FaultConfig{Seed: 1, WriteErrProb: 1})
	ops := func() []error {
		sub := filepath.Join(dir, "sub")
		errs := []error{fa.MkdirAll(sub, 0o755)}
		f, err := fa.CreateTemp(dir, "tmp-*")
		errs = append(errs, err)
		if err == nil {
			f.Close()
			errs = append(errs, fa.Rename(f.Name(), filepath.Join(sub, "moved")))
		}
		return errs
	}
	for _, err := range ops() {
		if err != nil {
			t.Fatalf("metadata op drew a probabilistic write fault: %v", err)
		}
	}
	if st := fa.Stats(); st.Writes != 0 {
		t.Fatalf("metadata ops counted write faults: %+v", st)
	}
	fa.FailWrites(nil, false)
	if errs := ops(); len(errs) != 2 || !errors.Is(errs[0], syscall.ENOSPC) || !errors.Is(errs[1], syscall.ENOSPC) {
		t.Fatalf("window did not fail MkdirAll and CreateTemp: %v", errs)
	}
	fa.Heal()
	f, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	fa.FailWrites(nil, false)
	if err := fa.Rename(f.Name(), f.Name()+".x"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("window did not fail Rename: %v", err)
	}
}

// TestWriteFileAtomicKeepsOldContentsOnFailure: a failing write
// window or a failing fsync leaves the previous contents under path and
// no temp file beside it; a clean write replaces them.
func TestWriteFileAtomicKeepsOldContentsOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.json")
	fa := NewFaulty(nil, FaultConfig{})
	if err := WriteFileAtomic(fa, path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(){
		"write": func() { fa.FailWrites(syscall.ENOSPC, true) },
		"sync":  func() { fa.FailSyncs(syscall.EIO) },
	} {
		open()
		if err := WriteFileAtomic(fa, path, []byte("new contents")); err == nil {
			t.Errorf("%s fault: write succeeded", name)
		}
		fa.Heal()
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Errorf("%s fault: %s = %q (%v), want the old contents", name, path, got, err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Errorf("%s fault left %d entries in %s, want 1", name, len(ents), dir)
		}
	}
	if err := WriteFileAtomic(fa, path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("%s = %q after a clean write, want new", path, got)
	}
}

func TestObservedCountsFaults(t *testing.T) {
	reg := obs.NewRegistry()
	fa := NewFaulty(nil, FaultConfig{Seed: 1})
	fsys := Observe(fa, reg)
	dir := t.TempDir()
	f, err := fsys.OpenFile(filepath.Join(dir, "m.txt"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fa.FailWrites(nil, false)
	_, _ = f.Write([]byte("x"))
	_, _ = f.Write([]byte("y"))
	fa.Heal()
	fa.FailSyncs(nil)
	_ = f.Sync()
	fa.Heal()

	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`radloc_storage_faults_total{op="write",err="enospc"} 2`,
		`radloc_storage_faults_total{op="sync",err="eio"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
