package service

// Persistent wrapper store. With Config.DataDir set (mdlogd -data-dir)
// the registry survives restarts: every successful PUT/DELETE
// /wrappers/{name} rewrites one versioned JSON snapshot file with an
// atomic replace-on-write (temp file + fsync + rename), so the file on
// disk is always a complete, parseable registry — a crash mid-save
// leaves the previous snapshot intact. Boot loads the snapshot before
// the config's boot wrappers (stored entries win: they are the
// daemon's runtime state, the config only seeds missing names), and a
// SIGHUP re-reads it through Server.Reload for zero-downtime wrapper
// rollout from outside the HTTP surface. A snapshot that fails to
// parse fails the boot loudly — a daemon that silently boots empty
// would serve 404s where traffic expects extractions.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// storeFormatVersion is the on-disk schema version; Load rejects files
// written by a future schema rather than misreading them.
const storeFormatVersion = 1

// storeFileName is the registry snapshot inside the data dir.
const storeFileName = "wrappers.json"

// StoredWrapper is one persisted registry entry: the compilable spec
// plus the identity fields that must survive a restart.
type StoredWrapper struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Version counts installs under this name (1 on first register,
	// +1 per replacement), surviving restarts.
	Version int64 `json:"version"`
	// Registered is when this version was installed.
	Registered time.Time `json:"registered"`
	// Spec is the source description the wrapper recompiles from.
	Spec WrapperSpec `json:"spec"`
}

// storeFile is the JSON document on disk.
type storeFile struct {
	FormatVersion int             `json:"format_version"`
	Wrappers      []StoredWrapper `json:"wrappers"`
}

// Store persists the wrapper registry under a data directory. All
// methods are safe for concurrent use; Save calls serialize.
type Store struct {
	path string // the snapshot file
	mu   sync.Mutex
}

// OpenStore prepares the data directory (creating it if needed) and
// returns the store handle. It does not read the snapshot — see Load.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: store data dir must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	return &Store{path: filepath.Join(dir, storeFileName)}, nil
}

// Path returns the snapshot file path (for /stats and error messages).
func (st *Store) Path() string { return st.path }

// Load reads the registry snapshot. A missing file is an empty
// registry (first boot); anything else that fails — unreadable file,
// malformed JSON, a future format version, an invalid wrapper name —
// is a hard error naming the file, never a silently-empty registry.
// Unknown fields are ignored, unlike in PUT bodies and boot configs: a
// snapshot written before a spec field was removed (such as "engine")
// must still boot, and the next Save drops the field.
func (st *Store) Load() ([]StoredWrapper, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	b, err := os.ReadFile(st.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: store %s: %w", st.path, err)
	}
	var f storeFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("service: store %s is corrupt: %w (refusing to boot with an empty registry; repair or remove the file)", st.path, err)
	}
	if f.FormatVersion != storeFormatVersion {
		return nil, fmt.Errorf("service: store %s has format version %d (this build reads %d)", st.path, f.FormatVersion, storeFormatVersion)
	}
	for i, sw := range f.Wrappers {
		if err := ValidateName(sw.Name); err != nil {
			return nil, fmt.Errorf("service: store %s entry %d: %w", st.path, i, err)
		}
	}
	return f.Wrappers, nil
}

// Save atomically replaces the snapshot with ws: the new document is
// written to a temp file in the same directory, fsynced, and renamed
// over the snapshot — readers (and a crashed writer's successor) see
// either the old complete file or the new complete one.
func (st *Store) Save(ws []StoredWrapper) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	data, err := json.MarshalIndent(storeFile{FormatVersion: storeFormatVersion, Wrappers: ws}, "", "  ")
	if err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(st.path)
	tmp, err := os.CreateTemp(dir, storeFileName+".tmp*")
	if err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), st.path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: store %s: %w", st.path, werr)
	}
	return nil
}

// storedSnapshot renders the registry's current entries in persisted
// form (sorted by name, like Registry.Snapshot).
func storedSnapshot(reg *Registry) []StoredWrapper {
	ws := reg.Snapshot()
	out := make([]StoredWrapper, len(ws))
	for i, w := range ws {
		out[i] = StoredWrapper{Name: w.Name, Version: w.Version, Registered: w.Registered, Spec: w.Spec}
	}
	return out
}

// persist writes the registry's current state through the store, if
// one is configured, keeping the save/error counters. Mutation
// handlers call it after the registry change; a failed save leaves the
// in-memory registry authoritative (the next successful save rewrites
// the whole snapshot) and surfaces the error to the caller.
func (s *Server) persist() error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Save(storedSnapshot(s.reg)); err != nil {
		s.storeErrors.Add(1)
		return err
	}
	s.storeSaves.Add(1)
	return nil
}

// Reload re-reads the store snapshot and atomically replaces the
// registry contents with it — the SIGHUP path: an operator (or another
// process) rewrites the snapshot file, signals the daemon, and
// in-flight requests finish on the wrappers they resolved while new
// requests see the new registry. Without a data dir it reports an
// error. Compilation happens before the swap, so a snapshot with a
// broken wrapper leaves the serving registry untouched.
func (s *Server) Reload() error {
	if s.store == nil {
		return fmt.Errorf("service: reload needs a data dir (-data-dir)")
	}
	stored, err := s.store.Load()
	if err != nil {
		return err
	}
	ws := make([]*Wrapper, len(stored))
	for i, sw := range stored {
		q, err := s.withDefaults(sw.Spec).Compile()
		if err != nil {
			return fmt.Errorf("service: reload: wrapper %q: %w", sw.Name, err)
		}
		ws[i] = &Wrapper{Name: sw.Name, Spec: sw.Spec, Query: q, Version: sw.Version, Registered: sw.Registered}
	}
	s.reg.ReplaceAll(ws)
	s.reloads.Add(1)
	return nil
}
