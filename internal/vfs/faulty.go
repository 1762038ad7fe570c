package vfs

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"radloc/internal/clock"
	"radloc/internal/rng"
)

// FaultConfig tunes a Faulty filesystem. All probabilities are in
// [0, 1] and are drawn from one seeded stream, so a given (seed,
// operation sequence) pair replays the identical fault pattern — the
// storage analogue of netchaos.Config.
type FaultConfig struct {
	// Seed feeds the deterministic fault stream.
	Seed uint64
	// WriteErrProb fails a file Write with WriteErr. Only file writes
	// draw it: directory creation, renames and temp-file creation fail
	// only inside a FailWrites window.
	WriteErrProb float64
	// SyncErrProb fails a file Sync with SyncErr.
	SyncErrProb float64
	// ReadErrProb fails a file Read (and ReadFile) with ReadErr.
	ReadErrProb float64
	// TornWriteProb turns a failing-or-not Write into a torn one: a
	// random strict prefix of the buffer lands on disk, then WriteErr
	// is returned. Torn writes are what fsync-less crashes and dying
	// media leave behind.
	TornWriteProb float64
	// WriteErr is the error injected on writes (default ENOSPC: the
	// disk-full case the degraded mode exists for).
	WriteErr error
	// SyncErr is the error injected on fsync (default EIO).
	SyncErr error
	// ReadErr is the error injected on reads (default EIO).
	ReadErr error
	// SlowSync, when positive, sleeps on Clock before every Sync —
	// the degraded-media case where fsync takes seconds.
	SlowSync time.Duration
	// Clock drives SlowSync; nil falls back to the real clock.
	Clock clock.Clock
}

// FaultStats counts the faults a Faulty filesystem actually injected.
type FaultStats struct {
	// Writes counts injected write failures (torn ones included).
	Writes uint64 `json:"writes"`
	// Syncs counts injected fsync failures.
	Syncs uint64 `json:"syncs"`
	// Reads counts injected read failures.
	Reads uint64 `json:"reads"`
	// Opens counts injected open failures.
	Opens uint64 `json:"opens"`
	// Torn counts the write failures that left a partial prefix.
	Torn uint64 `json:"torn"`
}

// Faulty wraps an inner FS and injects deterministic storage faults.
// Beyond the seeded probabilities of FaultConfig it exposes direct
// window controls (FailWrites/FailSyncs/FailReads/Heal) so a chaos
// test can open an exact ENOSPC window and close it again. Faulty is
// safe for concurrent use.
type Faulty struct {
	inner FS

	mu    sync.Mutex
	cfg   FaultConfig
	strm  *rng.Stream
	stats FaultStats

	// window overrides: non-nil forces every matching op to fail.
	writeErr error
	syncErr  error
	readErr  error
	tornWin  bool // torn prefix on forced write failures
	openErr  error
	openDir  string // opens at or below this path fail with openErr
}

// NewFaulty wraps inner (nil = the real filesystem) with the given
// fault configuration.
func NewFaulty(inner FS, cfg FaultConfig) *Faulty {
	if cfg.WriteErr == nil {
		cfg.WriteErr = syscall.ENOSPC
	}
	if cfg.SyncErr == nil {
		cfg.SyncErr = syscall.EIO
	}
	if cfg.ReadErr == nil {
		cfg.ReadErr = syscall.EIO
	}
	return &Faulty{
		inner: Or(inner),
		cfg:   cfg,
		strm:  rng.NewNamed(cfg.Seed, "vfs/faulty"),
	}
}

// FailWrites opens a window in which every file write, MkdirAll,
// Rename and CreateTemp fails with err (nil = the configured
// WriteErr). When torn is true each failing write first lands a
// partial prefix, as a dying disk would.
func (f *Faulty) FailWrites(err error, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = f.cfg.WriteErr
	}
	f.writeErr, f.tornWin = err, torn
}

// FailSyncs opens a window in which every fsync fails with err (nil =
// the configured SyncErr).
func (f *Faulty) FailSyncs(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = f.cfg.SyncErr
	}
	f.syncErr = err
}

// FailReads opens a window in which every read fails with err (nil =
// the configured ReadErr).
func (f *Faulty) FailReads(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = f.cfg.ReadErr
	}
	f.readErr = err
}

// FailOpensUnder opens a window in which opening any file at or below
// dir fails with err (nil = the configured ReadErr): one directory's
// storage dies while its neighbours keep working.
func (f *Faulty) FailOpensUnder(dir string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = f.cfg.ReadErr
	}
	f.openErr, f.openDir = err, filepath.Clean(dir)
}

// Heal closes every forced-failure window. Probabilistic faults from
// FaultConfig keep firing.
func (f *Faulty) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr, f.syncErr, f.readErr, f.tornWin = nil, nil, nil, false
	f.openErr, f.openDir = nil, ""
}

// Stats returns a snapshot of the injected-fault counters.
func (f *Faulty) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// writeFault decides one write's fate: (fault error, torn prefix
// length for a buffer of n bytes; -1 = not torn).
func (f *Faulty) writeFault(n int) (error, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeErr != nil {
		f.stats.Writes++
		if f.tornWin && n > 1 {
			f.stats.Torn++
			return f.writeErr, 1 + f.strm.IntN(n-1)
		}
		return f.writeErr, -1
	}
	if f.cfg.WriteErrProb > 0 && f.strm.Float64() < f.cfg.WriteErrProb {
		f.stats.Writes++
		if f.cfg.TornWriteProb > 0 && n > 1 && f.strm.Float64() < f.cfg.TornWriteProb {
			f.stats.Torn++
			return f.cfg.WriteErr, 1 + f.strm.IntN(n-1)
		}
		return f.cfg.WriteErr, -1
	}
	return nil, -1
}

// windowFault is the fate of a metadata write (MkdirAll, Rename,
// CreateTemp): it fails only inside a FailWrites window and draws
// nothing from the fault stream, so it never shifts the file writes'
// probabilistic faults.
func (f *Faulty) windowFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeErr != nil {
		f.stats.Writes++
	}
	return f.writeErr
}

func (f *Faulty) syncFault() error {
	f.mu.Lock()
	err := f.syncErr
	if err == nil && f.cfg.SyncErrProb > 0 && f.strm.Float64() < f.cfg.SyncErrProb {
		err = f.cfg.SyncErr
	}
	if err != nil {
		f.stats.Syncs++
	}
	slow, clk := f.cfg.SlowSync, f.cfg.Clock
	f.mu.Unlock()
	if slow > 0 {
		if clk == nil {
			clk = clock.Real{}
		}
		clk.Sleep(slow)
	}
	return err
}

func (f *Faulty) openFault(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := filepath.Clean(path)
	if f.openErr == nil || (p != f.openDir && !strings.HasPrefix(p, f.openDir+string(filepath.Separator))) {
		return nil
	}
	f.stats.Opens++
	return f.openErr
}

func (f *Faulty) readFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.readErr != nil {
		f.stats.Reads++
		return f.readErr
	}
	if f.cfg.ReadErrProb > 0 && f.strm.Float64() < f.cfg.ReadErrProb {
		f.stats.Reads++
		return f.cfg.ReadErr
	}
	return nil
}

// OpenFile opens path through the inner FS; the returned handle
// injects faults on Read/Write/Sync.
func (f *Faulty) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	if err := f.openFault(path); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f}, nil
}

// Open opens path read-only; reads through the handle inject faults.
func (f *Faulty) Open(path string) (File, error) {
	if err := f.openFault(path); err != nil {
		return nil, err
	}
	inner, err := f.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f}, nil
}

// ReadFile reads the whole file, subject to read faults.
func (f *Faulty) ReadFile(path string) ([]byte, error) {
	if err := f.readFault(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// ReadDir lists the directory through the inner FS (never faulted:
// directory listing failures wedge recovery in uninteresting ways).
func (f *Faulty) ReadDir(path string) ([]fs.DirEntry, error) { return f.inner.ReadDir(path) }

// MkdirAll creates the directory tree, subject to a FailWrites window.
func (f *Faulty) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.windowFault(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

// Rename moves oldPath to newPath, subject to a FailWrites window.
func (f *Faulty) Rename(oldPath, newPath string) error {
	if err := f.windowFault(); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

// Remove deletes path through the inner FS (never faulted: deletes
// are how the log frees space while degraded).
func (f *Faulty) Remove(path string) error { return f.inner.Remove(path) }

// Truncate resizes path through the inner FS (never faulted: truncate
// is the tail-repair primitive and shrinking needs no free space).
func (f *Faulty) Truncate(path string, size int64) error { return f.inner.Truncate(path, size) }

// Stat describes path through the inner FS.
func (f *Faulty) Stat(path string) (fs.FileInfo, error) { return f.inner.Stat(path) }

// Lstat describes path through the inner FS.
func (f *Faulty) Lstat(path string) (fs.FileInfo, error) { return f.inner.Lstat(path) }

// CreateTemp creates a temporary file, subject to a FailWrites
// window; the returned handle injects faults on its writes.
func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	if err := f.windowFault(); err != nil {
		return nil, err
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f}, nil
}

// faultyFile injects faults on the per-handle operations.
type faultyFile struct {
	File
	fs *Faulty
}

func (ff *faultyFile) Read(p []byte) (int, error) {
	if err := ff.fs.readFault(); err != nil {
		return 0, err
	}
	return ff.File.Read(p)
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	err, torn := ff.fs.writeFault(len(p))
	if err != nil {
		if torn > 0 && torn < len(p) {
			n, werr := ff.File.Write(p[:torn])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return ff.File.Write(p)
}

func (ff *faultyFile) Sync() error {
	if err := ff.fs.syncFault(); err != nil {
		return err
	}
	return ff.File.Sync()
}
