package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to FileStore as the wal. Replay must
// not panic; an unterminated final line (a torn write) is dropped
// silently; any complete line that does not decode is an error; and
// once a replay succeeds, a record appended after it is replayed after
// the next reopen.
func FuzzReplay(f *testing.F) {
	rec, err := json.Marshal(placement(1, 2, true))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{}, rec...), '\n'))
	f.Add(append(append([]byte{}, rec...), rec[:5]...))
	f.Add(append(append([]byte{}, rec...), "\n\n  \n{\"k\":"...))
	f.Add([]byte("garbage\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}

		// Model: complete lines only; blank lines are skipped.
		var want []Record
		corrupt := false
		complete := wal[:bytes.LastIndexByte(wal, '\n')+1]
		for _, line := range bytes.Split(complete, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				corrupt = true
				break
			}
			want = append(want, r)
		}

		replay := func() ([]Record, error) {
			fs, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			return New(fs, 0).Replay()
		}
		got, err := replay()
		if corrupt {
			if err == nil {
				t.Fatalf("undecodable complete line replayed without error: %q", wal)
			}
			return
		}
		if err != nil {
			t.Fatalf("replay of %q: %v", wal, err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("replay of %q:\n got  %+v\n want %+v", wal, got, want)
		}

		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		extra := placement(9, 99, false)
		if err := New(fs, 0).Append(extra); err != nil {
			t.Fatal(err)
		}
		fs.Close()
		got, err = replay()
		if err != nil {
			t.Fatalf("replay after append to %q: %v", wal, err)
		}
		if len(got) != len(want)+1 || !reflect.DeepEqual(got[len(want)], extra) {
			t.Fatalf("append after %q not replayed: got %+v", wal, got)
		}
	})
}
