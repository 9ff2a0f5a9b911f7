"""Gradient-orientation descriptors built from one view, many views, or
synthesized views of a reconstructed surface, plus a fully synthetic
ground-truthed benchmark that compares them under viewpoint change."""

from .geometry import PinholeCamera, Pose, axis_angle_rotation, look_at, rot_z
from .image import (AffineContrast, GradientField, GrayImage, ImagePyramid,
                    apply_contrast, base_to_level, bilinear_sample,
                    build_pyramid, compute_gradient, level_to_base, read_pgm,
                    write_pgm)
from .hog import (DescriptorParams, DescriptorVector, OrientationDensity,
                  normalize_density, orientation_density, patch_densities,
                  sample_descriptor)
from .multiview import MultiViewAccumulator, excitation_score, patch_scatter
from .matching import (METRICS, DescriptorDatabase, distance, match_all,
                       nn_query, pairwise_distances)
from .scene import (Correspondence, HeightfieldSurface, PlaneSurface,
                    RenderedView, RenderError, SceneModel, build_scene,
                    default_scene_spec, generate_dataset,
                    ground_truth_correspondence, load_dataset, make_texture,
                    read_depth, render_view, write_depth)
from .viewsynth import (LocalSurface, ReprojectionOutOfBounds,
                        aggregate_descriptor, patch_density,
                        sample_rotations, select_keyframes, synthesize_patch,
                        synthesize_views, view_descriptors)
from .tracking import (Track, TrackerConfig, attach_patches, detect_corners,
                       extract_patch, klt_steps, load_tracks, run_tracker,
                       save_tracks)
from .bench import (default_benchmark_config, memory_scaling,
                    quick_benchmark_config, run_benchmark, spearman,
                    update_cost_profile)

__version__ = "0.1.0"
