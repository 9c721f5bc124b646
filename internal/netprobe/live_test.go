package netprobe

import (
	"testing"
	"time"
)

func liveSetup(t *testing.T, mode DNSServerMode) (*LiveProber, *TestDNSServer, func()) {
	t.Helper()
	loop, err := NewLoopbackResponder()
	if err != nil {
		t.Fatal(err)
	}
	dns, err := NewTestDNSServer(mode)
	if err != nil {
		loop.Close()
		t.Fatal(err)
	}
	p := NewLiveProber(loop.Addr(), []string{dns.Addr()}, "probe.cellrel.test")
	p.ICMPTimeout = 400 * time.Millisecond
	p.DNSTimeout = 600 * time.Millisecond
	return p, dns, func() {
		loop.Close()
		dns.Close()
	}
}

func TestLiveRoundHealthy(t *testing.T) {
	p, _, cleanup := liveSetup(t, DNSAnswer)
	defer cleanup()
	r := p.Round()
	if !r.LoopbackOK || r.ICMPOK != 1 || r.DNSOK != 1 {
		t.Fatalf("round = %+v", r)
	}
	if got := r.Verdict(); got != VerdictRecovered {
		t.Errorf("verdict = %v, want recovered", got)
	}
	if r.Elapsed > 2*time.Second {
		t.Errorf("healthy round took %v", r.Elapsed)
	}
}

func TestLiveRoundDNSResolutionUnavailable(t *testing.T) {
	p, _, cleanup := liveSetup(t, DNSFail)
	defer cleanup()
	r := p.Round()
	// Server reachable (responds) but resolution fails: the paper's
	// DNS-unavailable false positive.
	if !r.LoopbackOK || r.ICMPOK != 1 || r.DNSOK != 0 {
		t.Fatalf("round = %+v", r)
	}
	if got := r.Verdict(); got != VerdictDNSFP {
		t.Errorf("verdict = %v, want DNS false positive", got)
	}
}

func TestLiveRoundNetworkSilent(t *testing.T) {
	p, _, cleanup := liveSetup(t, DNSSilent)
	defer cleanup()
	r := p.Round()
	// Nothing answers on the network side: a true stall.
	if !r.LoopbackOK || r.ICMPOK != 0 || r.DNSOK != 0 {
		t.Fatalf("round = %+v", r)
	}
	if got := r.Verdict(); got != VerdictStillStalled {
		t.Errorf("verdict = %v, want still-stalled", got)
	}
	// The round is time-bounded by the DNS timeout (paper: ≤ 5 s).
	if r.Elapsed > p.DNSTimeout+400*time.Millisecond {
		t.Errorf("silent round took %v (timeout %v)", r.Elapsed, p.DNSTimeout)
	}
}

func TestLiveRoundSystemSide(t *testing.T) {
	p, _, cleanup := liveSetup(t, DNSAnswer)
	defer cleanup()
	p.LoopbackAddr = "127.0.0.1:1" // nothing listens: local stack "broken"
	r := p.Round()
	if r.LoopbackOK {
		t.Fatal("loopback reported reachable")
	}
	if got := r.Verdict(); got != VerdictSystemSideFP {
		t.Errorf("verdict = %v, want system-side false positive", got)
	}
}

func TestLiveRoundModeSwitch(t *testing.T) {
	p, dns, cleanup := liveSetup(t, DNSSilent)
	defer cleanup()
	if v := p.Round().Verdict(); v != VerdictStillStalled {
		t.Fatalf("initial verdict %v", v)
	}
	dns.SetMode(DNSAnswer) // the "network" heals
	if v := p.Round().Verdict(); v != VerdictRecovered {
		t.Errorf("post-heal verdict %v, want recovered", v)
	}
}

func TestDNSWireRoundTrip(t *testing.T) {
	q, err := encodeDNSQuery(0x1234, "probe.cellrel.test")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := buildDNSResponse(q, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := decodeDNSResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.ID != 0x1234 || parsed.RCode != 0 || parsed.Answers != 2 {
		t.Errorf("parsed = %+v", parsed)
	}
}

func TestDNSWireServfail(t *testing.T) {
	q, _ := encodeDNSQuery(7, "x.test")
	resp, err := buildDNSResponse(q, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := decodeDNSResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.RCode != 2 || parsed.Answers != 0 {
		t.Errorf("parsed = %+v", parsed)
	}
}

func TestDNSNameValidation(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
	}{
		{"example.com", true},
		{"example.com.", true},
		{"a.b.c.d.e", true},
		{"", false},
		{"..", false},
		{"a..b", false},
		{string(make([]byte, 70)) + ".com", false}, // label > 63
	}
	for _, c := range cases {
		_, err := encodeDNSName(c.name)
		if (err == nil) != c.ok {
			t.Errorf("encodeDNSName(%q) err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
	long := ""
	for i := 0; i < 50; i++ {
		long += "abcde."
	}
	if _, err := encodeDNSName(long + "com"); err == nil {
		t.Error("overlong name accepted")
	}
}

func TestDecodeDNSResponseMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 12), // a query, not a response (QR unset)
	}
	for i, c := range cases {
		if _, err := decodeDNSResponse(c); err == nil {
			t.Errorf("case %d: malformed message accepted", i)
		}
	}
	// Truncated question section.
	q, _ := encodeDNSQuery(1, "example.com")
	resp, _ := buildDNSResponse(q, 0, 0)
	if _, err := decodeDNSResponse(resp[:14]); err == nil {
		t.Error("truncated question accepted")
	}
}

func TestSkipDNSNameCompression(t *testing.T) {
	// Name that is just a compression pointer.
	msg := make([]byte, 20)
	msg[12] = 0xC0
	msg[13] = 0x04
	off, err := skipDNSName(msg, 12)
	if err != nil || off != 14 {
		t.Errorf("off=%d err=%v", off, err)
	}
	// Label overrunning the buffer.
	bad := []byte{63}
	if _, err := skipDNSName(bad, 0); err == nil {
		t.Error("overrun accepted")
	}
}

func TestLoopbackResponderCloseIdempotent(t *testing.T) {
	r, err := NewLoopbackResponder()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
