//! Halo-exchange application scenario: the example promoted into a swept
//! dataset — application timestep time versus interior work, with and
//! without communication/computation overlap, on GM and Portals.
//!
//! One small grid, one CSV (`halo.csv`): for each platform, a
//! `<platform> no-overlap` and a `<platform> overlap` series over the
//! interior-work axis. The gap between the two series is the paper's
//! introduction in application terms — where the platform can progress
//! messages independently (Portals), overlap converts halo wait time into
//! free computation; where it cannot (GM without `MPI_Test` calls), the
//! two curves collapse onto each other.

use crate::figures::Fidelity;
use crate::series::{Dataset, Series};
use comb_core::{run, CombError, HaloParams, HaloPoint, RunSpec};
use comb_hw::HwConfig;

/// Interior-work grid (calibrated loop iterations): small, spanning
/// "halos dominate" to "computation dominates".
const INTERIOR_GRID: [u64; 4] = [50_000, 200_000, 800_000, 3_200_000];

/// Generate the halo-exchange scenario dataset at smoke scale. The
/// fidelity contributes only its `shards` knob (the grid is fixed and
/// small); like every figure, the CSV bytes are identical at any shard
/// count.
pub fn generate_halo(fidelity: Fidelity) -> Result<Dataset, CombError> {
    let params = HaloParams::smoke();
    let mut series = Vec::new();
    for hw in [HwConfig::gm_myrinet(), HwConfig::portals_myrinet()] {
        let spec = RunSpec {
            shards: fidelity.shards,
            ..RunSpec::new(hw)
        };
        for overlap in [false, true] {
            let label = format!(
                "{} {}",
                spec.hw.name,
                if overlap { "overlap" } else { "no-overlap" }
            );
            let points: Result<Vec<(f64, f64)>, CombError> = INTERIOR_GRID
                .iter()
                .map(|&interior_iters| {
                    let point = HaloPoint {
                        params,
                        interior_iters,
                        overlap,
                    };
                    let ms = run(&point, &spec)
                        .map_err(|e| CombError::internal(format!("halo scenario: {e}")))?
                        .sample;
                    Ok((interior_iters as f64, ms))
                })
                .collect();
            series.push(Series::new(label, points?));
        }
    }
    Ok(Dataset {
        id: "halo".into(),
        title: format!(
            "1-D halo exchange, {} ranks, {} iterations, {} KB halos",
            params.ranks,
            params.iterations,
            params.halo_bytes / 1024
        ),
        x_label: "Interior Work (Iterations)".into(),
        y_label: "Timestep Time (ms)".into(),
        log_x: true,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_dataset_has_expected_shape_and_offload_gap() {
        let ds = generate_halo(Fidelity::smoke()).unwrap();
        assert_eq!(ds.id, "halo");
        assert_eq!(ds.series.len(), 4);
        assert_eq!(ds.point_count(), 4 * INTERIOR_GRID.len());
        // On Portals (full offload) the overlapped curve must win at the
        // largest interior point, where there is the most work to hide
        // the halos behind.
        let base = ds.series_by_label("Portals no-overlap").unwrap();
        let over = ds.series_by_label("Portals overlap").unwrap();
        assert!(over.last_y().unwrap() < base.last_y().unwrap());
    }
}
