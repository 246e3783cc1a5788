package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
)

// Manifest is the provenance record stamped into every telemetry document:
// what ran, under which knobs, on which toolchain. It makes run snapshots
// and the repository benchmark's result documents self-describing across
// machines and commits.
type Manifest struct {
	// App is the benchmark that ran ("" for non-simulation artifacts).
	App string `json:"app,omitempty"`
	// Protection is the protection mode label (sim.Protection.String()).
	Protection string `json:"protection,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	// MTBE is the mean time between errors in instructions (0 = fault-free).
	MTBE       uint64 `json:"mtbe,omitempty"`
	FrameScale int    `json:"frame_scale,omitempty"`
	// Coder is the ECC backend spec ("" = the default Hamming SEC-DED).
	Coder string `json:"coder,omitempty"`
	// ConfigHash fingerprints the full run configuration (FNV-1a of its
	// canonical rendering) so identical configs are recognizable at a glance.
	ConfigHash string `json:"config_hash,omitempty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the VCS revision baked into the binary, when built from a
	// checkout ("" under plain `go test`), suffixed "+dirty" when the
	// checkout had uncommitted changes.
	Commit string `json:"commit,omitempty"`
}

// NewManifest returns a manifest with the toolchain/provenance fields
// (go version, GOMAXPROCS, vcs revision) filled in; callers stamp the
// run-specific fields.
func NewManifest() Manifest {
	m := Manifest{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Commit = commitOf(bi.Settings)
	}
	return m
}

// commitOf renders a binary's VCS provenance: vcs.revision, plus "+dirty"
// when vcs.modified is true, so a result built from a tree with
// uncommitted changes does not name the clean commit it started from.
func commitOf(settings []debug.BuildSetting) string {
	commit, dirty := "", false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if commit != "" && dirty {
		commit += "+dirty"
	}
	return commit
}

// ConfigHash fingerprints an arbitrary configuration value: FNV-1a over
// its JSON rendering. Deterministic for a given config because
// encoding/json orders struct fields by declaration and map keys
// lexically.
func ConfigHash(cfg any) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Snapshot is the unified telemetry document of one run: a provenance
// manifest plus one named section per subsystem's stats (queue totals,
// AM/HI counters, core stats, fault counts, quality...). It serializes
// to the JSON shape internal/diag's ValidateSnapshot checks.
type Snapshot struct {
	Manifest Manifest       `json:"manifest"`
	Sections map[string]any `json:"sections"`
}

// NewSnapshot returns a snapshot around the given manifest with an empty
// section registry.
func NewSnapshot(m Manifest) *Snapshot {
	return &Snapshot{Manifest: m, Sections: map[string]any{}}
}

// Add registers a subsystem's stats under name. Any JSON-marshalable
// value works; the existing Stats structs are used as-is.
func (s *Snapshot) Add(name string, v any) {
	s.Sections[name] = v
}

// WriteJSON writes the snapshot as an indented JSON document.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
