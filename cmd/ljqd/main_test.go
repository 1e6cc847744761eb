package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestBootstrapRing: -peers and -membership-file share one bootstrap,
// so the same -advertise spelling is accepted or refused identically
// under both, and donors are every other member in epoch order.
func TestBootstrapRing(t *testing.T) {
	roster := filepath.Join(t.TempDir(), "members.conf")
	if err := os.WriteFile(roster, []byte("# ring\nhttp://c:8081\nhttp://a:8081/\nhttp://b:8081 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const peers = "http://c:8081, http://a:8081/,http://b:8081"
	cases := []struct {
		name                   string
		peers, file, advertise string
		wantErr                string // substring; "" = success
		wantNil, wantDynamic   bool
		wantSelf               string
		wantDonors             []string
	}{
		{name: "single node", wantNil: true},
		{name: "peers", peers: peers, advertise: "http://a:8081",
			wantSelf: "http://a:8081", wantDonors: []string{"http://b:8081", "http://c:8081"}},
		{name: "peers, advertise with trailing slash", peers: peers, advertise: "http://a:8081/",
			wantSelf: "http://a:8081", wantDonors: []string{"http://b:8081", "http://c:8081"}},
		{name: "file, advertise with trailing slash", file: roster, advertise: "http://a:8081/", wantDynamic: true,
			wantSelf: "http://a:8081", wantDonors: []string{"http://b:8081", "http://c:8081"}},
		{name: "file wins over peers", peers: "http://x:1,http://c:8081", file: roster, advertise: "http://c:8081", wantDynamic: true,
			wantSelf: "http://c:8081", wantDonors: []string{"http://a:8081", "http://b:8081"}},
		{name: "peers without advertise", peers: peers, wantErr: "-peers requires -advertise"},
		{name: "file without advertise", file: roster, wantErr: "-membership-file requires -advertise"},
		{name: "peers, advertise not listed", peers: peers, advertise: "http://d:8081", wantErr: `"http://d:8081" is not listed in -peers`},
		{name: "file, advertise not listed", file: roster, advertise: "http://d:8081", wantErr: "is not listed in " + roster},
		{name: "missing roster", file: roster + ".missing", advertise: "http://a:8081", wantErr: "members.conf.missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := bootstrapRing(tc.peers, tc.file, tc.advertise)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantNil {
				if b != nil {
					t.Fatalf("got %+v, want nil (no cluster)", b)
				}
				return
			}
			if b.self != tc.wantSelf || !reflect.DeepEqual(b.donors, tc.wantDonors) {
				t.Fatalf("self %q donors %v, want %q %v", b.self, b.donors, tc.wantSelf, tc.wantDonors)
			}
			if (b.src != nil) != tc.wantDynamic {
				t.Fatalf("dynamic source = %v, want %v", b.src != nil, tc.wantDynamic)
			}
			if b.epoch == nil || b.epoch.Seq != 0 || !b.epoch.HasPeer(b.self) {
				t.Fatalf("epoch %v, want epoch 0 containing %s", b.epoch, b.self)
			}
		})
	}
}
