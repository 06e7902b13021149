package journal

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
)

// FileStore is the live-mode store: a snapshot file plus a wal file of
// newline-framed records under one directory. Appends are synchronous
// line writes; Snapshot writes a temp file and renames it over the old
// snapshot before truncating the wal, so a crash between the two
// leaves either the old (snapshot, wal) pair or the new snapshot with
// a stale-but-idempotent wal — both replay to the same state because
// record application is a full-state overwrite.
type FileStore struct {
	dir  string
	wal  *os.File
	size int64
}

const (
	snapName = "snapshot.jsonl"
	walName  = "wal.jsonl"
)

// NewFileStore opens (or creates) a journal directory. A wal that does
// not end in a newline holds a torn final write — that record never
// became durable — so the fragment is cut off before the next Append
// can land on the same line.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, walName)
	if err := trimTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fs := &FileStore{dir: dir, wal: f}
	fs.size = fs.diskSize()
	return fs, nil
}

// Close releases the wal handle.
func (fs *FileStore) Close() error { return fs.wal.Close() }

// Dir returns the journal directory.
func (fs *FileStore) Dir() string { return fs.dir }

// Append writes one framed line to the wal.
func (fs *FileStore) Append(line []byte) error {
	if _, err := fs.wal.Write(append(line, '\n')); err != nil {
		return err
	}
	fs.size += int64(len(line)) + 1
	return nil
}

// Snapshot writes the new snapshot atomically and truncates the wal.
func (fs *FileStore) Snapshot(lines [][]byte) error {
	tmp := filepath.Join(fs.dir, snapName+".tmp")
	var buf bytes.Buffer
	for _, line := range lines {
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(fs.dir, snapName)); err != nil {
		return err
	}
	if err := fs.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := fs.wal.Seek(0, 0); err != nil {
		return err
	}
	fs.size = int64(buf.Len())
	return nil
}

// Load reads snapshot and wal lines.
func (fs *FileStore) Load() (snap, tail [][]byte, err error) {
	snap, err = readLines(filepath.Join(fs.dir, snapName))
	if err != nil {
		return nil, nil, err
	}
	tail, err = readLines(filepath.Join(fs.dir, walName))
	if err != nil {
		return nil, nil, err
	}
	return snap, tail, nil
}

// SizeBytes is the durable footprint.
func (fs *FileStore) SizeBytes() int64 { return fs.size }

func (fs *FileStore) diskSize() int64 {
	var n int64
	for _, name := range []string{snapName, walName} {
		if st, err := os.Stat(filepath.Join(fs.dir, name)); err == nil {
			n += st.Size()
		}
	}
	return n
}

// trimTornTail truncates the file at path after its last newline.
func trimTornTail(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if keep := bytes.LastIndexByte(data, '\n') + 1; keep < len(data) {
		return os.Truncate(path, int64(keep))
	}
	return nil
}

func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines = append(lines, line)
	}
	return lines, sc.Err()
}
