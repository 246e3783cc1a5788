package obs

import (
	"runtime/debug"
	"testing"
)

func TestCommitOf(t *testing.T) {
	rev := debug.BuildSetting{Key: "vcs.revision", Value: "c0dbf02"}
	for _, c := range []struct {
		name     string
		settings []debug.BuildSetting
		want     string
	}{
		{"revision only", []debug.BuildSetting{rev}, "c0dbf02"},
		{"revision and modified", []debug.BuildSetting{rev, {Key: "vcs.modified", Value: "true"}}, "c0dbf02+dirty"},
		{"modified before revision", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, rev}, "c0dbf02+dirty"},
		{"modified=false", []debug.BuildSetting{rev, {Key: "vcs.modified", Value: "false"}}, "c0dbf02"},
		{"no vcs keys", []debug.BuildSetting{{Key: "GOARCH", Value: "amd64"}}, ""},
	} {
		if got := commitOf(c.settings); got != c.want {
			t.Errorf("%s: commitOf = %q, want %q", c.name, got, c.want)
		}
	}
}
