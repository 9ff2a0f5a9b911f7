"""Every on-disk format, mangled: cut at any offset, padded, replaced by
foreign bytes or with one bit flipped. Each load must succeed (a flip inside
a raster is valid data) or raise a ValueError that starts with the path of
the mangled file; a cut or padded file must raise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdesc.hog import DescriptorParams
from mvdesc.image import GrayImage, read_pgm, write_pgm
from mvdesc.matching import DescriptorDatabase
from mvdesc.scene import generate_dataset, load_dataset, read_depth, write_depth
from mvdesc.tracking import Track, load_tracks, save_tracks


@pytest.fixture(scope="module")
def formats(tmp_path_factory):
    """Format name -> (file, loader) for one small valid file of each."""
    root = tmp_path_factory.mktemp("formats")
    rng = np.random.default_rng(5)
    write_pgm(GrayImage(rng.random((4, 5))), root / "image.pgm")
    depth = rng.random((3, 4)) + 1.0
    depth[0, 0] = np.inf
    write_depth(root / "image.depth", depth)
    db = DescriptorDatabase("mv", DescriptorParams(5, bins=4, cells=1),
                            [3, 1, 4], rng.random((3, 4)))
    db.save(root / "db")
    save_tracks([Track(0, 0, [np.array([2.5, 3.0]), np.array([2.75, 3.5])],
                       patches=rng.random((2, 3, 3))),
                 Track(7, 1, [np.array([1.0, 2.0])], alive=False)],
                root / "tracks", meta={"levels": 2})
    generate_dataset({"n_frames": 2, "resolution": [16, 12], "focal": 17.0,
                      "test_azimuths_deg": [0.0], "test_elevations_deg": [46.0],
                      "test_distance_scale": [1.0]}, root / "ds")
    return {
        "pgm": (root / "image.pgm", read_pgm),
        "depth": (root / "image.depth", read_depth),
        "database": (root / "db", DescriptorDatabase.load),
        "tracks.json": (root / "tracks" / "tracks.json", load_tracks),
        "patches.pgm": (root / "tracks" / "patches.pgm", load_tracks),
        "manifest": (root / "ds" / "manifest.json", load_dataset),
    }


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << bit % 8
    return bytes(out)


FORMATS = ["pgm", "depth", "database", "tracks.json", "patches.pgm",
           "manifest"]

# (kind, argument): the share of the file a cut keeps, padding, foreign
# bytes (random, or another format's file), or the position of the bit to
# flip as a share of the file's bits; shares fit files of any length
MANGLES = st.one_of(
    st.tuples(st.just("cut"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("pad"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("foreign"), st.binary(max_size=64)),
    st.tuples(st.just("other"), st.sampled_from(FORMATS)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True)),
)


def _mangled(data: bytes, kind: str, arg, formats) -> bytes:
    if kind == "cut":
        return data[:int(arg * len(data))]
    if kind == "pad":
        return data + arg
    if kind == "foreign":
        return arg
    if kind == "other":
        return formats[arg][0].read_bytes()
    return _flip(data, int(arg * 8 * len(data)))


@pytest.mark.parametrize("name", FORMATS)
@settings(derandomize=True, deadline=None, max_examples=150)
@given(mangle=MANGLES)
def test_mangled_file_loads_or_is_named(formats, name, mangle):
    path, load = formats[name]
    original = path.read_bytes()
    mangled = _mangled(original, *mangle, formats)
    # a cut or padded file is refused, unless only a JSON file's trailing
    # whitespace changed
    refuse = mangle[0] in ("cut", "pad") and (
        name not in ("tracks.json", "manifest")
        or mangled.rstrip() != original.rstrip())
    path.write_bytes(mangled)
    # the loaders take the file, except load_tracks and load_dataset, which
    # take its directory
    target = path.parent if load in (load_tracks, load_dataset) else path
    try:
        load(target)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
    else:
        assert not refuse, f"{name} loaded after {mangle[0]} {mangle[1]!r}"
    finally:
        path.write_bytes(original)
