// Command liveprobe runs Android-MOD's network-state probing round against
// real sockets: a loopback reachability check plus ICMP-style reachability
// and a hand-rolled RFC 1035 DNS query to each configured server, with the
// paper's 1 s / 5 s timeouts — the deployable counterpart of the simulated
// prober.
//
// With no flags it demonstrates all four verdicts against local test
// servers; point -dns at real resolvers to probe an actual network.
//
// Usage:
//
//	liveprobe                         # self-contained demo of every verdict
//	liveprobe -dns 8.8.8.8:53 -name example.com
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/netprobe"
)

// errUsage marks a command line the flag package refused. It has printed
// the reason and the usage by then; main exits 2, as flag.ExitOnError does.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatalf("liveprobe: %v", err)
	}
}

// run probes the given DNS servers, or runs the local demo, and writes the
// verdicts to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("liveprobe", flag.ContinueOnError)
	var (
		dns  = fs.String("dns", "", "comma-separated DNS servers (host:port); empty runs the local demo")
		name = fs.String("name", "probe.cellrel.test", "test server domain name to resolve")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	loop, err := netprobe.NewLoopbackResponder()
	if err != nil {
		return err
	}
	defer loop.Close()
	if *dns != "" {
		p := netprobe.NewLiveProber(loop.Addr(), strings.Split(*dns, ","), *name)
		r := p.Round()
		fmt.Fprintf(out, "round: loopback=%v dns-reachable=%d resolved=%d elapsed=%v\n",
			r.LoopbackOK, r.ICMPOK, r.DNSOK, r.Elapsed)
		fmt.Fprintf(out, "verdict: %v\n", r.Verdict())
		return nil
	}

	// Demo: reproduce each §2.2 classification against local servers.
	srv, err := netprobe.NewTestDNSServer(netprobe.DNSAnswer)
	if err != nil {
		return err
	}
	defer srv.Close()

	cases := []struct {
		title string
		setup func(p *netprobe.LiveProber)
	}{
		{"healthy network (stall fixed)", func(p *netprobe.LiveProber) { srv.SetMode(netprobe.DNSAnswer) }},
		{"DNS resolution unavailable (false positive)", func(p *netprobe.LiveProber) { srv.SetMode(netprobe.DNSFail) }},
		{"network-side stall (nothing answers)", func(p *netprobe.LiveProber) { srv.SetMode(netprobe.DNSSilent) }},
		{"system-side fault (loopback dead, false positive)", func(p *netprobe.LiveProber) {
			p.LoopbackAddr = "127.0.0.1:1"
		}},
	}
	for _, c := range cases {
		p := netprobe.NewLiveProber(loop.Addr(), []string{srv.Addr()}, *name)
		p.ICMPTimeout = p.ICMPTimeout / 2
		p.DNSTimeout = p.DNSTimeout / 2
		c.setup(p)
		r := p.Round()
		fmt.Fprintf(out, "%-48s -> %-28v (loopback=%v reach=%d resolve=%d, %v)\n",
			c.title, r.Verdict(), r.LoopbackOK, r.ICMPOK, r.DNSOK, r.Elapsed.Round(1e6))
	}
	return nil
}
