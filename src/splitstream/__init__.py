"""splitstream: split-DNN inference with compressed feature-tensor streaming.

A desk-scale laboratory for running a convolutional model cut in two: the
client half computes up to a chosen layer, the feature tensor is quantized,
tiled into a plane, compressed with a block-DCT codec and streamed over a
simulated lossy link; the server half finishes inference from whatever
arrives, concealing losses.  Companion pieces cover motion-compensated
tensor prediction, latency-based strategy selection and the transport
protocol with bandwidth-estimating backpressure.
"""

from .codec import (BadMagicError, BlockCountError, CodecError,
                    TargetInfeasibleError, TruncatedStreamError, decode,
                    decode_prefix, encode, encode_to_target, quality_table,
                    rate_fidelity_curve, stream_info, undecoded_plane_mask)
from .concealment import (STRATEGIES, LossMask, SideChannelMeans, apply_mask,
                          conceal, loss_sweep, make_mask, side_channel_means)
from .model import (CLASS_NAMES, CUT_POINTS, EQUIVARIANCE_BORDER, CutPoint,
                    SplitModel, cut_point)
from .motion import (MotionField, estimate_global_translation, predict,
                     scale_to_tensor, shift_overlap_slices)
from .netsim import Link, LinkConfig, SimulationError, Simulator
from .pipeline import (LinkScenario, PipelineConfig, SessionError,
                       corpus_stats, measure_profiles, run_session)
from .protocol import (FLAG_END_OF_TENSOR, WIRE_HEADER, BandwidthEstimator,
                       Confirmation, FrameAssembler, MsgType, ProtocolError,
                       ReassemblyError, SendBuffer, WireMessage,
                       decode_message, encode_message, frame_deadline_us,
                       make_control, may_send, parse_control,
                       process_send_buffer, reassemble, should_process_frame)
from .rng import Xorshift64Star, bulk_u64, bulk_uniform, derive
from .quantizer import (QuantizedTensor, QuantizerSpec, bits_per_element,
                        compression_ratio, dequantize, quantize, sweep)
from .strategy import (NetworkConditions, StrategyProfile, best_strategy,
                       crossover_bandwidth, latency_regions, total_latency)
from .tensor import (FTSR_HEADER, FTSR_MAGIC, DistortionReport, FeatureTensor,
                     TensorStats, collect_stats, empirical_entropy, mse, psnr,
                     read_tensor, write_tensor)
from .tiling import TiledPlane, TileLayout, detile, layout_for, tile, write_pgm

__version__ = "0.1.0"
