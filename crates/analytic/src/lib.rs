//! Analytic models and datasets from the paper's trend arguments.
//!
//! * [`pins`] — the Figure 1 dataset (pin counts, performance, package
//!   bandwidth for 18 microprocessors, 1978–1997) with log-linear trend
//!   fits;
//! * [`growth`] — the Table 2 I/O-complexity models (computation vs.
//!   minimal traffic as on-chip memory scales);
//! * [`qualitative`] — Table 1's direction-of-change predictions;
//! * [`extrapolate`] — the §4.3 ten-year package projection;
//! * [`epin`] — effective pin bandwidth (Eq. 5) and its traffic-
//!   inefficiency upper bound (Eq. 7);
//! * [`ecm`] — the ECM-style execution-time predictor with an explicit
//!   error bound; no product path calls it (see its module docs).
//!
//! # Example
//!
//! ```
//! use membw_analytic::pins::{dataset, fit_growth, Series};
//!
//! // The paper: "pin counts are increasing by about 16% per year".
//! let rate = fit_growth(&dataset(), Series::Pins);
//! assert!(rate > 0.08 && rate < 0.25, "annual growth {rate}");
//! ```

pub mod ecm;
pub mod epin;
pub mod extrapolate;
pub mod growth;
pub mod pins;
pub mod qualitative;

pub use ecm::{BlockReuse, EcmConfig, EcmPrediction, KernelSignature, MODEL_VERSION};
pub use epin::{effective_pin_bandwidth, upper_bound_epin};
pub use extrapolate::{project, Projection};
pub use growth::Algorithm;
pub use pins::{dataset, fit_growth, Processor, Series};
pub use qualitative::{table1, Direction, Table1Row};
