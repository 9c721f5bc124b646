package netprobe

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// LiveProber is the deployable counterpart of the simulated Prober: it runs
// one §2.2 probing round against real sockets. The loopback reachability
// check uses a TCP dial to a local responder instead of a raw ICMP echo
// (ICMP requires privileges Android-MOD has but a test process does not —
// the classification signal, "can the local stack move packets at all", is
// the same); DNS-server reachability and resolution use real UDP with
// hand-rolled RFC 1035 messages.
type LiveProber struct {
	// LoopbackAddr is the local TCP responder standing in for 127.0.0.1
	// ICMP (e.g. a LoopbackResponder's address).
	LoopbackAddr string
	// DNSServers are "host:port" UDP resolver addresses.
	DNSServers []string
	// TestName is the dedicated test server's domain name to resolve.
	TestName string
	// ICMPTimeout and DNSTimeout mirror the paper's 1 s / 5 s.
	ICMPTimeout time.Duration
	DNSTimeout  time.Duration
}

// NewLiveProber returns a prober with the paper's timeouts.
func NewLiveProber(loopbackAddr string, dnsServers []string, testName string) *LiveProber {
	return &LiveProber{
		LoopbackAddr: loopbackAddr,
		DNSServers:   dnsServers,
		TestName:     testName,
		ICMPTimeout:  time.Second,
		DNSTimeout:   5 * time.Second,
	}
}

// RoundResult is one live probing round's raw observations.
type RoundResult struct {
	LoopbackOK bool
	// ICMPOK and DNSOK count reachable servers and successful resolutions.
	ICMPOK int
	DNSOK  int
	// Elapsed is the wall-clock cost of the round (≤ max timeout).
	Elapsed time.Duration
}

// Verdict classifies the round exactly like the simulated prober.
func (r RoundResult) Verdict() Verdict { return classify(r.LoopbackOK, r.ICMPOK > 0, r.DNSOK > 0) }

// Round runs one probing round: all probes issued concurrently, results
// gathered at their timeouts.
func (p *LiveProber) Round() RoundResult {
	start := time.Now()
	var mu sync.Mutex
	var res RoundResult
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		ok := p.pingLoopback()
		mu.Lock()
		res.LoopbackOK = ok
		mu.Unlock()
	}()
	for _, server := range p.DNSServers {
		server := server
		wg.Add(2)
		go func() {
			defer wg.Done()
			if p.pingDNSServer(server) {
				mu.Lock()
				res.ICMPOK++
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			if p.queryDNS(server) {
				mu.Lock()
				res.DNSOK++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// pingLoopback checks that the local network stack can complete a
// connection to the loopback responder within the ICMP timeout.
func (p *LiveProber) pingLoopback() bool {
	conn, err := net.DialTimeout("tcp", p.LoopbackAddr, p.ICMPTimeout)
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// pingDNSServer checks UDP reachability of a DNS server by sending a
// query and accepting *any* response bytes within the ICMP timeout — the
// reachability analogue of an ICMP echo when raw sockets are unavailable.
func (p *LiveProber) pingDNSServer(server string) bool {
	_, err := p.exchange(server, p.ICMPTimeout, false)
	return err == nil
}

// queryDNS requires a well-formed DNS response with NOERROR and at least
// one answer within the DNS timeout.
func (p *LiveProber) queryDNS(server string) bool {
	resp, err := p.exchange(server, p.DNSTimeout, true)
	if err != nil {
		return false
	}
	return resp.RCode == 0 && resp.Answers > 0
}

// exchange sends one query and reads one datagram. parse toggles full
// response validation.
func (p *LiveProber) exchange(server string, timeout time.Duration, parse bool) (dnsResponse, error) {
	id := uint16(rand.Int())
	query, err := encodeDNSQuery(id, p.TestName)
	if err != nil {
		return dnsResponse{}, err
	}
	conn, err := net.DialTimeout("udp", server, timeout)
	if err != nil {
		return dnsResponse{}, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	conn.SetDeadline(deadline)
	if _, err := conn.Write(query); err != nil {
		return dnsResponse{}, err
	}
	buf := make([]byte, maxDNSMessage)
	n, err := conn.Read(buf)
	if err != nil {
		return dnsResponse{}, err
	}
	if !parse {
		return dnsResponse{}, nil
	}
	resp, err := decodeDNSResponse(buf[:n])
	if err != nil {
		return dnsResponse{}, err
	}
	if resp.ID != id {
		return dnsResponse{}, fmt.Errorf("netprobe: DNS response ID mismatch")
	}
	return resp, nil
}

// LoopbackResponder is the tiny local TCP service the live prober's
// loopback check dials (accept-and-close).
type LoopbackResponder struct {
	ln   net.Listener
	wg   sync.WaitGroup
	once sync.Once
}

// NewLoopbackResponder listens on 127.0.0.1 (port 0 = ephemeral).
func NewLoopbackResponder() (*LoopbackResponder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &LoopbackResponder{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	return r, nil
}

// Addr returns the responder's address.
func (r *LoopbackResponder) Addr() string { return r.ln.Addr().String() }

// Close stops the responder.
func (r *LoopbackResponder) Close() error {
	var err error
	r.once.Do(func() {
		err = r.ln.Close()
		r.wg.Wait()
	})
	return err
}

// DNSServerMode controls a test DNS server's behaviour.
type DNSServerMode int

// Test-server behaviours mirroring the stall fault classes.
const (
	DNSAnswer DNSServerMode = iota // resolve normally
	DNSFail                        // respond SERVFAIL (resolution unavailable)
	DNSSilent                      // reachable transport, no response
)

// TestDNSServer is a minimal UDP DNS server for exercising the live
// prober (and for the examples' local "dedicated test server").
type TestDNSServer struct {
	pc   net.PacketConn
	mode DNSServerMode
	mu   sync.Mutex
	wg   sync.WaitGroup
	once sync.Once
}

// NewTestDNSServer starts a UDP DNS server on 127.0.0.1.
func NewTestDNSServer(mode DNSServerMode) (*TestDNSServer, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &TestDNSServer{pc: pc, mode: mode}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the server's address.
func (s *TestDNSServer) Addr() string { return s.pc.LocalAddr().String() }

// SetMode changes behaviour at runtime.
func (s *TestDNSServer) SetMode(m DNSServerMode) {
	s.mu.Lock()
	s.mode = m
	s.mu.Unlock()
}

// Close stops the server.
func (s *TestDNSServer) Close() error {
	var err error
	s.once.Do(func() {
		err = s.pc.Close()
		s.wg.Wait()
	})
	return err
}

func (s *TestDNSServer) serve() {
	defer s.wg.Done()
	buf := make([]byte, maxDNSMessage)
	for {
		n, addr, err := s.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		s.mu.Lock()
		mode := s.mode
		s.mu.Unlock()
		if mode == DNSSilent {
			continue
		}
		var resp []byte
		if mode == DNSFail {
			resp, err = buildDNSResponse(buf[:n], 0, 2) // SERVFAIL
		} else {
			resp, err = buildDNSResponse(buf[:n], 1, 0)
		}
		if err != nil {
			continue
		}
		s.pc.WriteTo(resp, addr)
	}
}
