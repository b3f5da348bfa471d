package core

import "flag"

// RegisterCampaignFlags registers the experiment-scale flags shared by
// seusim, raddrc, and campaignd job submission — -design, -geom, -seed,
// -sample, -maxbits, -workers, -kernel — on fs, seeded from def, and
// returns the spec the parsed values land in.
func RegisterCampaignFlags(fs *flag.FlagSet, def CampaignSpec) *CampaignSpec {
	s := def
	fs.StringVar(&s.Design, "design", def.Design, "catalogued design")
	fs.StringVar(&s.Geom, "geom", def.Geom, "device geometry: tiny|small|xqvr1000")
	fs.Int64Var(&s.Seed, "seed", def.Seed, "random seed")
	fs.Float64Var(&s.Sample, "sample", def.Sample, "fraction of configuration bits to inject (1 = exhaustive)")
	fs.Int64Var(&s.MaxBits, "maxbits", def.MaxBits, "cap injections per design at the first N selected bits (0 = no cap)")
	fs.IntVar(&s.Workers, "workers", def.Workers, "parallel injection workers, each on a cloned board replica; results are identical at any count (0 = GOMAXPROCS)")
	fs.StringVar(&s.Kernel, "kernel", def.Kernel, "vector (default) | sweep (reference oracle); reports are byte-identical at either")
	return &s
}
