//! Benchmark configuration: the knobs of the FFTXlib miniapp plus the
//! execution mode (original static code vs the two task-based strategies).

pub mod env;

/// Execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The original FFTXlib: static parallelisation over R×T MPI ranks with
    /// T FFT task groups (Fig. 1 of the paper).
    Original,
    /// Optimisation strategy 1 (Fig. 4): every step of the FFT pipeline is
    /// a task with flow dependencies; R ranks × T worker threads, ntg = 1.
    TaskPerStep,
    /// Optimisation strategy 2 (Fig. 5): every FFT (loop iteration) is one
    /// independent task; R ranks × T worker threads, ntg = 1.
    TaskPerFft,
    /// The paper's future work (Section VI): strategy 1's step tasks with
    /// *split-phase* collectives — the scatter posts a nonblocking
    /// alltoall in one task and a separate task completes it, so the
    /// runtime automatically overlaps the transfer with other bands'
    /// compute (cf. Marjanović et al., hybrid MPI/SMPSs).
    TaskAsync,
    /// The combination the paper's conclusion calls for: per-band fused
    /// tasks (strategy 2's de-synchronisation) whose internal pipeline is
    /// cut at split-phase collectives (strategy 1's overlap) — three
    /// chained tasks per band.
    Hybrid,
}

impl Mode {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Original => "original",
            Mode::TaskPerStep => "ompss-steps",
            Mode::TaskPerFft => "ompss-ffts",
            Mode::TaskAsync => "ompss-async",
            Mode::Hybrid => "ompss-hybrid",
        }
    }
}

/// Data decomposition of the scatter exchange (sticks↔planes transpose).
///
/// `Slab` is the paper's QE layout: one padded alltoall over all R ranks of
/// a scatter family. `Pencil` factors the family into a p1 × p2 process
/// grid ([`fftx_pw::ProcessGrid`]) and runs two smaller transposes (row,
/// then column) — roughly twice the volume but far fewer messages, the
/// AccFFT trade-off that wins at high rank counts. Both lowerings produce
/// bitwise-identical results; only the exchange schedule differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Decomposition {
    /// Sticks↔planes via one full-family alltoall (the paper's layout).
    Slab,
    /// 2-D process grid with two transpose exchanges (row + column).
    Pencil,
}

impl Decomposition {
    /// Every decomposition, in presentation order.
    pub const ALL: [Decomposition; 2] = [Decomposition::Slab, Decomposition::Pencil];

    /// Short name used in reports and knobs.
    pub fn name(self) -> &'static str {
        match self {
            Decomposition::Slab => "slab",
            Decomposition::Pencil => "pencil",
        }
    }

    /// Parses a knob value (`slab` / `pencil`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "slab" => Some(Decomposition::Slab),
            "pencil" => Some(Decomposition::Pencil),
            _ => None,
        }
    }

    /// Stable index (used in tuner candidate keys).
    pub fn index(self) -> usize {
        match self {
            Decomposition::Slab => 0,
            Decomposition::Pencil => 1,
        }
    }
}

/// A decomposition *request*: one of the fixed decompositions, or `Auto`
/// (let the placement tuner / cost model choose per workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompChoice {
    /// Force the slab lowering.
    Slab,
    /// Force the pencil lowering.
    Pencil,
    /// Pick per workload (tuner axis / comm-model comparison).
    Auto,
}

impl DecompChoice {
    /// Parses a knob value (`slab` / `pencil` / `auto`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "slab" => Some(DecompChoice::Slab),
            "pencil" => Some(DecompChoice::Pencil),
            "auto" => Some(DecompChoice::Auto),
            _ => None,
        }
    }

    /// Short name used in reports and knobs.
    pub fn name(self) -> &'static str {
        match self {
            DecompChoice::Slab => "slab",
            DecompChoice::Pencil => "pencil",
            DecompChoice::Auto => "auto",
        }
    }

    /// The fixed decomposition this choice pins, if any.
    pub fn fixed(self) -> Option<Decomposition> {
        match self {
            DecompChoice::Slab => Some(Decomposition::Slab),
            DecompChoice::Pencil => Some(Decomposition::Pencil),
            DecompChoice::Auto => None,
        }
    }
}

/// The valid `FFTX_DECOMP` / `--decomp` values, for error messages.
pub fn valid_decomps() -> &'static str {
    "slab, pencil, auto"
}

/// Full configuration of one miniapp execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FftxConfig {
    /// Plane-wave kinetic-energy cutoff (Ry). Paper benchmark: 80.
    pub ecutwfc: f64,
    /// Cubic lattice parameter (bohr). Paper benchmark: 20.
    pub alat: f64,
    /// Number of Kohn–Sham bands. Paper benchmark: 128.
    pub nbnd: usize,
    /// First parallel dimension R ("MPI ranks" axis of the paper's R × T).
    pub nr: usize,
    /// Second dimension T: FFT task groups (original) or worker threads per
    /// rank (task modes). Paper benchmark: 8.
    pub ntg: usize,
    /// Execution strategy.
    pub mode: Mode,
    /// Scatter-exchange decomposition (slab or pencil).
    pub decomp: Decomposition,
    /// Seed for the synthetic bands and potential.
    pub seed: u64,
}

impl FftxConfig {
    /// The paper's benchmark parameters (Figs. 2 and 6): cutoff 80 Ry,
    /// lattice parameter 20 bohr, 128 bands, 8 task groups.
    pub fn paper(nr: usize, mode: Mode) -> Self {
        FftxConfig {
            ecutwfc: 80.0,
            alat: 20.0,
            nbnd: 128,
            nr,
            ntg: 8,
            mode,
            decomp: Decomposition::Slab,
            seed: 2017,
        }
    }

    /// A laptop-scale configuration for tests and the real execution engine
    /// (grid ~24^3, a handful of bands).
    pub fn small(nr: usize, ntg: usize, mode: Mode) -> Self {
        FftxConfig {
            ecutwfc: 6.0,
            alat: 8.0,
            nbnd: 2 * ntg.max(1),
            nr,
            ntg,
            mode,
            decomp: Decomposition::Slab,
            seed: 42,
        }
    }

    /// The same configuration with a different decomposition.
    pub fn with_decomp(mut self, decomp: Decomposition) -> Self {
        self.decomp = decomp;
        self
    }

    /// MPI ranks the execution uses: R×T for the original static code,
    /// R for the task modes (threads replace the task groups).
    pub fn vmpi_ranks(&self) -> usize {
        match self.mode {
            Mode::Original => self.nr * self.ntg,
            Mode::TaskPerStep | Mode::TaskPerFft | Mode::TaskAsync | Mode::Hybrid => self.nr,
        }
    }

    /// Execution lanes (hardware threads) the configuration occupies.
    pub fn lanes(&self) -> usize {
        self.nr * self.ntg
    }

    /// Task-group count of the data layout: T for the original mode, 1 for
    /// the task modes (the paper's OmpSs runs use ntg = 1).
    pub fn layout_ntg(&self) -> usize {
        match self.mode {
            Mode::Original => self.ntg,
            Mode::TaskPerStep | Mode::TaskPerFft | Mode::TaskAsync | Mode::Hybrid => 1,
        }
    }

    /// Outer-loop iterations: bands are processed `layout_ntg` at a time.
    pub fn iterations(&self) -> usize {
        self.nbnd / self.layout_ntg()
    }

    /// Checks structural requirements: positive dimensions, at least one
    /// band, a band count divisible by the task-group count, and a finite,
    /// positive cutoff and cell.
    pub fn check(&self) -> Result<(), String> {
        if self.nr == 0 || self.ntg == 0 {
            return Err("FftxConfig: nr/ntg must be positive".into());
        }
        if self.nbnd == 0 {
            return Err("FftxConfig: need at least one band".into());
        }
        if !self.nbnd.is_multiple_of(self.layout_ntg()) {
            return Err(format!(
                "FftxConfig: nbnd ({}) must be divisible by the task-group count ({})",
                self.nbnd,
                self.layout_ntg()
            ));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.ecutwfc) || !positive(self.alat) {
            return Err("FftxConfig: bad cutoff/cell".into());
        }
        Ok(())
    }

    /// [`FftxConfig::check`] for library callers that treat a bad
    /// configuration as a programming error.
    ///
    /// # Panics
    /// Panics with [`FftxConfig::check`]'s message.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Configuration label in the paper's "R x T" notation.
    pub fn label(&self) -> String {
        format!("{} x {}", self.nr, self.ntg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_benchmark() {
        let c = FftxConfig::paper(8, Mode::Original);
        assert_eq!(c.ecutwfc, 80.0);
        assert_eq!(c.alat, 20.0);
        assert_eq!(c.nbnd, 128);
        assert_eq!(c.ntg, 8);
        assert_eq!(c.vmpi_ranks(), 64);
        assert_eq!(c.lanes(), 64);
        assert_eq!(c.layout_ntg(), 8);
        assert_eq!(c.iterations(), 16);
        assert_eq!(c.label(), "8 x 8");
        c.validate();
    }

    #[test]
    fn task_modes_trade_ranks_for_threads() {
        let c = FftxConfig::paper(8, Mode::TaskPerFft);
        assert_eq!(c.vmpi_ranks(), 8);
        assert_eq!(c.lanes(), 64);
        assert_eq!(c.layout_ntg(), 1);
        assert_eq!(c.iterations(), 128);
        c.validate();
    }

    #[test]
    fn small_preset_is_valid_for_all_modes() {
        for mode in [
            Mode::Original,
            Mode::TaskPerStep,
            Mode::TaskPerFft,
            Mode::TaskAsync,
            Mode::Hybrid,
        ] {
            FftxConfig::small(2, 2, mode).validate();
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_bands_rejected() {
        let mut c = FftxConfig::small(1, 3, Mode::Original);
        c.nbnd = 4;
        c.validate();
    }

    #[test]
    fn decomp_parse_roundtrip() {
        for d in Decomposition::ALL {
            assert_eq!(Decomposition::parse(d.name()), Some(d));
        }
        assert_eq!(Decomposition::parse("ring"), None);
        for c in [DecompChoice::Slab, DecompChoice::Pencil, DecompChoice::Auto] {
            assert_eq!(DecompChoice::parse(c.name()), Some(c));
        }
        assert_eq!(DecompChoice::Slab.fixed(), Some(Decomposition::Slab));
        assert_eq!(DecompChoice::Pencil.fixed(), Some(Decomposition::Pencil));
        assert_eq!(DecompChoice::Auto.fixed(), None);
        assert_eq!(valid_decomps(), "slab, pencil, auto");
    }

    #[test]
    fn with_decomp_switches_only_the_decomposition() {
        let base = FftxConfig::small(2, 2, Mode::Original);
        assert_eq!(base.decomp, Decomposition::Slab);
        let p = base.with_decomp(Decomposition::Pencil);
        assert_eq!(p.decomp, Decomposition::Pencil);
        assert_eq!(FftxConfig { decomp: Decomposition::Slab, ..p }, base);
    }

    #[test]
    fn mode_names() {
        assert_eq!(Mode::Original.name(), "original");
        assert_eq!(Mode::TaskPerStep.name(), "ompss-steps");
        assert_eq!(Mode::TaskPerFft.name(), "ompss-ffts");
        assert_eq!(Mode::TaskAsync.name(), "ompss-async");
        assert_eq!(Mode::Hybrid.name(), "ompss-hybrid");
    }
}
