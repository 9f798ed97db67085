//! # comb-report — figure regeneration, CSV output, ASCII plots and shape
//! checks for the COMB reproduction
//!
//! Maps every data figure of the paper's evaluation (Figures 4–17) to the
//! sweeps that regenerate it on the simulated platforms, renders the result
//! (CSV + terminal plot), and checks the paper's qualitative claims against
//! the regenerated data ([`expect`]).
//!
//! ```no_run
//! use comb_report::{run_figures_cached, Fidelity, FigureId};
//!
//! let reports = run_figures_cached(&[FigureId::Fig11], Fidelity::quick(), None, None).unwrap();
//! println!("{}", reports[0].plot(72, 20));
//! assert!(reports[0].all_pass());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod ascii;
pub mod degradation;
pub mod expect;
pub mod experiments;
pub mod figures;
pub mod halo;
pub mod series;
pub mod soak;
pub mod sweeptext;
pub mod timeline;

pub use degradation::{generate_degradation, DEGRADATION_IDS};
pub use expect::{check_figure, Check};
pub use experiments::{markdown_report, run_campaigns, run_figures_cached, FigureReport};
pub use figures::{
    generate, required_campaigns, CacheCounts, CampaignKey, Campaigns, Fidelity, FigureId,
};
pub use halo::generate_halo;
pub use series::{CiBand, Dataset, Point, Series};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use sweeptext::{render_polling_sweep, render_pww_sweep, render_sweep};
pub use timeline::render_pww_timeline;
