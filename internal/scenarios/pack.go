package scenarios

import (
	"fmt"
	"strings"

	"stardust/internal/device"
	"stardust/internal/engine"
	"stardust/internal/experiments"
	"stardust/internal/workload"
)

func init() {
	engine.Register(engine.Scenario{
		Name:       "pack/fig8a",
		Desc:       "Fig 8(a) NetFPGA packing throughput vs packet size, four designs",
		Defaults:   engine.Params{"clock_hz": "150000000"},
		Fractional: []string{"clock_hz"},
		Docs:       map[string]string{"clock_hz": "NetFPGA datapath clock in Hz"},
		Run: func(c engine.Context) (engine.Result, error) {
			clock := c.Params.Float("clock_hz", 150e6)
			var res engine.Result
			for _, row := range device.Fig8a(clock, nil) {
				for _, d := range device.AllDesigns {
					res.Add(fmt.Sprintf("gbps_%s_%dB", sanitize(fmt.Sprint(d)), row.PacketBytes), row.Gbps[d], "Gbps")
				}
			}
			var b strings.Builder
			experiments.WriteFig8a(&b, clock, nil)
			res.Text = b.String()
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name:       "pack/fig8b",
		Desc:       "Fig 8(b) production-trace throughput mixes",
		Defaults:   engine.Params{"clock_hz": "150000000"},
		Fractional: []string{"clock_hz"},
		Docs:       map[string]string{"clock_hz": "NetFPGA datapath clock in Hz"},
		Run: func(c engine.Context) (engine.Result, error) {
			clock := c.Params.Float("clock_hz", 150e6)
			var res engine.Result
			for _, tr := range workload.Traces {
				sizes, weights := workload.PacketMix(tr)
				res.Add(fmt.Sprintf("switch_pct_%s", sanitize(string(tr))),
					100*device.NetFPGA(device.Reference, clock).MixThroughput(sizes, weights), "%")
				res.Add(fmt.Sprintf("cell_pct_%s", sanitize(string(tr))),
					100*device.NetFPGA(device.Cells, clock).MixThroughput(sizes, weights), "%")
				res.Add(fmt.Sprintf("stardust_pct_%s", sanitize(string(tr))),
					100*device.NetFPGA(device.Packed, clock).MixThroughput(sizes, weights), "%")
			}
			var b strings.Builder
			experiments.WriteFig8b(&b, clock)
			res.Text = b.String()
			return res, nil
		},
	})
}

// sanitize lowercases a label and folds non-alphanumerics to '_' so it
// can serve as a metric-name component.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
