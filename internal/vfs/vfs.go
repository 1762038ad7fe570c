// Package vfs is the injectable filesystem seam under radloc's storage
// layer. internal/wal (segments, checkpoints, quarantine) and the
// daemon's cluster stores perform every filesystem operation through
// the small FS interface here instead of calling os.* directly, so a
// test — or a chaos run — can slide a fault injector underneath the
// entire durability stack without touching a single kernel knob.
//
// Three implementations ship:
//
//   - OS: the passthrough to the real filesystem (the default
//     everywhere an Options.FS field is left nil).
//   - Faulty: a seeded deterministic fault injector — ENOSPC on write,
//     EIO on read/write/sync, torn short-writes, slow fsync — the
//     storage twin of internal/netchaos.
//   - Observed: a counting wrapper that records every injected-or-real
//     fault on radloc_storage_faults_total{op,err}.
//
// The interface is deliberately the subset the WAL actually uses; it
// is not a general filesystem abstraction.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is an open file handle. The subset of *os.File the storage
// layer uses: sequential read/write, fsync, truncate-in-place.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Truncate changes the size of the open file.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem seam. Semantics match the identically-named
// os package functions; implementations may inject faults but must
// keep those semantics when they do not.
type FS interface {
	// OpenFile opens path with os.O_* flags.
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// Open opens path read-only.
	Open(path string) (File, error)
	// ReadFile reads the whole file at path.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists the directory at path, sorted by name.
	ReadDir(path string) ([]fs.DirEntry, error)
	// MkdirAll creates the directory at path with any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// Rename atomically moves oldPath to newPath.
	Rename(oldPath, newPath string) error
	// Remove deletes the file or empty directory at path.
	Remove(path string) error
	// Truncate resizes the file at path without opening it for append.
	Truncate(path string, size int64) error
	// Stat describes the file at path, following symlinks.
	Stat(path string) (fs.FileInfo, error)
	// Lstat describes the file at path without following symlinks.
	Lstat(path string) (fs.FileInfo, error)
	// CreateTemp creates a new temporary file in dir (see os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
}

// OS is the passthrough FS over the real filesystem. The zero value is
// ready to use; every nil Options.FS in the storage stack resolves to
// it.
type OS struct{}

// OpenFile opens path with os.OpenFile.
func (OS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// Open opens path read-only with os.Open.
func (OS) Open(path string) (File, error) { return os.Open(path) }

// ReadFile reads the whole file with os.ReadFile.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir lists the directory with os.ReadDir.
func (OS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

// MkdirAll creates the directory tree with os.MkdirAll.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// Rename moves oldPath to newPath with os.Rename.
func (OS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Remove deletes path with os.Remove.
func (OS) Remove(path string) error { return os.Remove(path) }

// Truncate resizes path with os.Truncate.
func (OS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// Stat describes path with os.Stat.
func (OS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

// Lstat describes path with os.Lstat.
func (OS) Lstat(path string) (fs.FileInfo, error) { return os.Lstat(path) }

// CreateTemp creates a temporary file with os.CreateTemp.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Or returns f, or OS when f is nil — the one-line default used by
// every Options struct that carries an FS field.
func Or(f FS) FS {
	if f == nil {
		return OS{}
	}
	return f
}

// WriteFile writes data to path through fsys, creating or truncating
// the file — the os.WriteFile convenience lifted onto the seam, so
// small metadata writers (epoch files, route caches) inject faults
// like the WAL does.
func WriteFile(fsys FS, path string, data []byte, perm fs.FileMode) error {
	f, err := Or(fsys).OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// WriteFileAtomic replaces path with data so that a crash leaves the
// old contents or the new ones, never a mix or an empty file: it
// writes a temp file beside path, fsyncs it, renames it over path and
// fsyncs the directory. Every error on the way is returned, and a
// failed write leaves no temp file behind. The file gets
// CreateTemp's mode, 0600.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	fsys = Or(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return err
	}
	return SyncDir(fsys, dir)
}

// SyncDir fsyncs a directory through fsys so renames and creates in it
// are durable. Some filesystems refuse fsync on directories; that is
// their durability call to make, not a storage failure, so a sync
// error on the read-only directory handle is tolerated. Only failing
// to open the directory is an error.
func SyncDir(fsys FS, dir string) error {
	d, err := Or(fsys).Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
