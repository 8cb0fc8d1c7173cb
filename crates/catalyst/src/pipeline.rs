//! The Catalyst slice pipeline and its SENSEI analysis adaptor.

use parking_lot::Mutex;
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

use datamodel::DataSet;
use minimpi::Comm;
use render::color::{Color, Colormap};
use render::composite::Compositor;
use render::deflate::Mode;
use render::pipeline::{pseudocolor_slice, SliceRender};
use render::png::encode_framebuffer;
use sensei::{AnalysisAdaptor, Association, DataAdaptor, Steering};

/// Where rendered images go.
#[derive(Clone, Debug, PartialEq)]
pub enum SliceOutput {
    /// Keep only the most recent PNG bytes in memory (tests, staging).
    InMemory,
    /// Write `slice_<step>.png` files into the directory.
    Directory(PathBuf),
}

/// Configuration of a Catalyst slice extract + render.
#[derive(Clone, Debug)]
pub struct SlicePipeline {
    /// Point array to pseudocolor.
    pub array: String,
    /// Sliced axis.
    pub axis: usize,
    /// Global point index of the plane.
    pub global_index: i64,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// PNG compression mode (`Fixed` = real zlib; `Stored` reproduces
    /// the paper's skip-the-compression ablation).
    pub png_mode: Mode,
    /// Output placement.
    pub output: SliceOutput,
    /// Render every `frequency`-th step (1 = every step).
    pub frequency: u64,
}

impl SlicePipeline {
    /// A pipeline with the paper's Catalyst defaults: 1920×1080, real
    /// compression, every step, in-memory output.
    pub fn new(array: impl Into<String>, axis: usize, global_index: i64) -> Self {
        SlicePipeline {
            array: array.into(),
            axis,
            global_index,
            width: crate::DEFAULT_IMAGE.0,
            height: crate::DEFAULT_IMAGE.1,
            png_mode: Mode::Fixed,
            output: SliceOutput::InMemory,
            frequency: 1,
        }
    }
}

/// Shared handle to the most recent PNG (rank 0 only).
pub type PngHandle = Arc<Mutex<Option<Vec<u8>>>>;

/// SENSEI analysis adaptor driving the Catalyst slice pipeline.
pub struct CatalystSliceAnalysis {
    pipeline: SlicePipeline,
    last_png: PngHandle,
    images_written: u64,
    failures: Vec<String>,
    reported_missing: bool,
}

impl CatalystSliceAnalysis {
    /// Wrap a pipeline.
    pub fn new(pipeline: SlicePipeline) -> Self {
        assert!(pipeline.frequency >= 1, "frequency must be at least 1");
        CatalystSliceAnalysis {
            pipeline,
            last_png: Arc::new(Mutex::new(None)),
            images_written: 0,
            failures: Vec::new(),
            reported_missing: false,
        }
    }

    /// Handle to the latest PNG bytes (filled on rank 0).
    pub fn png_handle(&self) -> PngHandle {
        Arc::clone(&self.last_png)
    }

    /// Number of images produced so far (on rank 0).
    pub fn images_written(&self) -> u64 {
        self.images_written
    }

    /// The adaptor's mesh with the configured array attached, or `None`
    /// (reported once) when the simulation cannot provide it.
    fn mesh_with_array(&mut self, data: &dyn DataAdaptor) -> Option<DataSet> {
        let mut mesh = data.mesh();
        if let Err(err) = data.add_array(&mut mesh, Association::Point, &self.pipeline.array) {
            if !self.reported_missing {
                self.reported_missing = true;
                self.failures.push(err.to_string());
            }
            return None;
        }
        Some(mesh)
    }

    /// `(local extent, global extent, values)` of the configured array on
    /// the first structured leaf of `mesh`. An `f64` array is borrowed,
    /// not copied, so the caller must hold a publish window on `mesh`
    /// while it reads the values.
    fn structured_field<'m>(
        &mut self,
        mesh: &'m DataSet,
    ) -> Option<(datamodel::Extent, datamodel::Extent, Cow<'m, [f64]>)> {
        for leaf in mesh.leaves() {
            let (local, global, attrs) = match leaf {
                DataSet::Image(g) => (g.extent, g.global_extent, &g.point_data),
                DataSet::Rectilinear(g) => (g.extent, g.global_extent, &g.point_data),
                _ => continue,
            };
            let Some(arr) = attrs.get(&self.pipeline.array) else {
                continue;
            };
            // Space-checked read: a device-resident array reaching a
            // host-side render surfaces as a failure, not a quiet copy.
            let values = match arr.values_view_in(0, datamodel::current_space()) {
                Ok(v) => v,
                Err(err) => {
                    self.failures.push(format!("catalyst-slice: {err}"));
                    return None;
                }
            };
            return Some((local, global, values));
        }
        None
    }
}

impl AnalysisAdaptor for CatalystSliceAnalysis {
    fn name(&self) -> &str {
        "catalyst-slice"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        if !data.step().is_multiple_of(self.pipeline.frequency) {
            return Steering::Continue;
        }
        let mesh = self.mesh_with_array(data);
        // Sanitizer: the values rendered below are zero-copy borrows of
        // the simulation's arrays; hold a publish window until the render
        // is done with them.
        let _publish = mesh
            .as_ref()
            .map(|m| datamodel::publish_dataset(m, "catalyst"));
        let Some((local, global, values)) = mesh.as_ref().and_then(|m| self.structured_field(m))
        else {
            // Still participate in the collective render with an empty
            // block so other ranks don't hang.
            let cfg = self.render_config();
            let empty = datamodel::Extent::new([0, 0, 0], [0, 0, 0]);
            let _ = pseudocolor_slice(comm, &empty, &global_of(data), &[0.0], &cfg);
            return Steering::Continue;
        };
        let cfg = self.render_config();
        if let Some(fb) = pseudocolor_slice(comm, &local, &global, &values, &cfg) {
            // Rank 0: PNG-encode (the serial zlib stage) and emit.
            let png = encode_framebuffer(&fb, Color::WHITE, self.pipeline.png_mode);
            if let SliceOutput::Directory(dir) = &self.pipeline.output {
                let path = dir.join(format!("slice_{:05}.png", data.step()));
                if let Err(e) = std::fs::write(&path, &png) {
                    eprintln!("catalyst: failed to write {}: {e}", path.display());
                }
            }
            *self.last_png.lock() = Some(png);
            self.images_written += 1;
        }
        Steering::Continue
    }

    fn take_failures(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }
}

impl CatalystSliceAnalysis {
    fn render_config(&self) -> SliceRender {
        SliceRender {
            axis: self.pipeline.axis,
            global_index: self.pipeline.global_index,
            width: self.pipeline.width,
            height: self.pipeline.height,
            compositor: Compositor::BinarySwap,
            cmap: Colormap::cool_warm(),
        }
    }
}

/// Fallback global extent when a rank has no matching leaf (kept tiny;
/// the values are never sampled because the local extent is degenerate).
fn global_of(data: &dyn DataAdaptor) -> datamodel::Extent {
    match data.mesh() {
        DataSet::Image(g) => g.global_extent,
        DataSet::Rectilinear(g) => g.global_extent,
        _ => datamodel::Extent::new([0, 0, 0], [1, 1, 1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{partition_extent, DataArray, Extent, ImageData, MemorySpace};
    use minimpi::World;
    use render::png::decode_rgb;
    use sensei::{Bridge, InMemoryAdaptor};

    fn adaptor(comm: &Comm, step: u64) -> InMemoryAdaptor {
        adaptor_with(comm, step, |vals| DataArray::owned("data", 1, vals))
    }

    /// The test field `x + y`, wrapped into a point array by `array`.
    fn adaptor_with(
        comm: &Comm,
        step: u64,
        array: impl FnOnce(Vec<f64>) -> DataArray,
    ) -> InMemoryAdaptor {
        let global = Extent::whole([9, 9, 9]);
        let dims = datamodel::dims_create(comm.size());
        let local = partition_extent(&global, dims, comm.rank());
        let mut g = ImageData::new(local, global);
        let vals: Vec<f64> = local.iter_points().map(|p| (p[0] + p[1]) as f64).collect();
        g.add_point_array(array(vals));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    /// Rank 0's PNG of step 0 rendered from the field built by `array`.
    fn render_with(comm: &Comm, array: impl FnOnce(Vec<f64>) -> DataArray) -> Option<Vec<u8>> {
        let mut pipe = SlicePipeline::new("data", 2, 4);
        pipe.width = 24;
        pipe.height = 24;
        let mut analysis = CatalystSliceAnalysis::new(pipe);
        analysis.execute(&adaptor_with(comm, 0, array), comm);
        assert!(analysis.take_failures().is_empty());
        let png = analysis.png_handle().lock().clone();
        png
    }

    #[test]
    fn non_f64_arrays_render_like_f64() {
        World::run(2, |comm| {
            let f64_png = render_with(comm, |v| DataArray::owned("data", 1, v));
            let f32_png = render_with(comm, |v| {
                DataArray::owned("data", 1, v.iter().map(|&x| x as f32).collect())
            });
            assert_eq!(f64_png, f32_png, "small integers are exact in f32");
            assert_eq!(f64_png.is_some(), comm.rank() == 0);
        });
    }

    #[test]
    fn device_resident_field_is_reported_not_rendered() {
        World::run(2, |comm| {
            let mut pipe = SlicePipeline::new("data", 2, 4);
            pipe.width = 16;
            pipe.height = 16;
            let mut analysis = CatalystSliceAnalysis::new(pipe);
            let data = adaptor_with(comm, 0, |v| {
                DataArray::owned("data", 1, v).with_space(MemorySpace::DeviceSim(0))
            });
            analysis.execute(&data, comm);
            let failures = analysis.take_failures();
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("lives in"), "{}", failures[0]);
            assert!(analysis.png_handle().lock().is_none());
        });
    }

    #[test]
    fn produces_decodable_png_on_root() {
        World::run(4, |comm| {
            let mut pipe = SlicePipeline::new("data", 2, 4);
            pipe.width = 40;
            pipe.height = 30;
            let analysis = CatalystSliceAnalysis::new(pipe);
            let png = analysis.png_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(analysis));
            bridge.execute(&adaptor(comm, 0), comm);
            if comm.rank() == 0 {
                let bytes = png.lock().clone().expect("png on root");
                let (w, h, rgb) = decode_rgb(&bytes).expect("valid png");
                assert_eq!((w, h), (40, 30));
                // Pseudocolored plane: not all pixels identical.
                assert!(rgb.chunks(3).any(|p| p != &rgb[0..3]));
            } else {
                assert!(png.lock().is_none());
            }
        });
    }

    #[test]
    fn frequency_skips_steps() {
        World::run(2, |comm| {
            let mut pipe = SlicePipeline::new("data", 2, 4);
            pipe.width = 16;
            pipe.height = 16;
            pipe.frequency = 5;
            let mut analysis = CatalystSliceAnalysis::new(pipe);
            for s in 0..10 {
                analysis.execute(&adaptor(comm, s), comm);
            }
            if comm.rank() == 0 {
                assert_eq!(analysis.images_written(), 2, "steps 0 and 5 only");
            }
        });
    }

    #[test]
    fn writes_files_when_directed() {
        World::run(2, |comm| {
            let dir = std::env::temp_dir().join(format!(
                "catalyst_test_{}_{}",
                std::process::id(),
                comm.rank()
            ));
            // Only rank 0 writes; both configure the same dir path.
            let shared = std::env::temp_dir().join(format!("catalyst_test_{}", std::process::id()));
            let _ = std::fs::create_dir_all(&shared);
            let mut pipe = SlicePipeline::new("data", 2, 4);
            pipe.width = 16;
            pipe.height = 16;
            pipe.output = SliceOutput::Directory(shared.clone());
            let mut analysis = CatalystSliceAnalysis::new(pipe);
            analysis.execute(&adaptor(comm, 3), comm);
            comm.barrier();
            if comm.rank() == 0 {
                let f = shared.join("slice_00003.png");
                let bytes = std::fs::read(&f).expect("file written");
                assert!(decode_rgb(&bytes).is_ok());
                let _ = std::fs::remove_dir_all(&shared);
            }
            let _ = dir;
        });
    }

    #[test]
    fn stored_mode_is_larger_than_fixed() {
        World::run(1, |comm| {
            let mut sizes = Vec::new();
            for mode in [Mode::Fixed, Mode::Stored] {
                let mut pipe = SlicePipeline::new("data", 2, 4);
                pipe.width = 64;
                pipe.height = 64;
                pipe.png_mode = mode;
                let mut analysis = CatalystSliceAnalysis::new(pipe);
                analysis.execute(&adaptor(comm, 0), comm);
                sizes.push(analysis.png_handle().lock().as_ref().unwrap().len());
            }
            assert!(
                sizes[0] < sizes[1],
                "fixed {} < stored {}",
                sizes[0],
                sizes[1]
            );
        });
    }
}
