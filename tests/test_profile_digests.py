"""The corpus profiles, pinned.

Each row holds one kernel's full functional trace length and the sha256
of its ``profile_trace(...).to_dict()`` as JSON with sorted keys.  The
rows were recorded with the one-pass profiler the chunk-fed one
replaced, so they are an oracle that does not depend on how the
profiler is written: changing any profiled attribute of any corpus
kernel fails here, on native and interpreter traces alike.
"""

import hashlib
import json

import pytest

from repro.core.profiler import profile_trace
from repro.sim import run_program
from repro.workloads import build_workload, workload_names

#: kernel -> (trace instructions, sha256 of its profile's JSON)
PROFILE_DIGESTS = {
    "adpcm": (
        101_302,
        "8061cd14d57820479ea3c8983b7df61a078fdc6484f908dfffd0208b8a10308c"),
    "basicmath": (
        96_387,
        "7cc636cb10056cf2172d69574a9b2bcebe2622b76d8b9eb6fa3183d4e19d6821"),
    "bitcount": (
        97_418,
        "d774bd75d247879f3a2b367365a57f75f368bedcc6bd16dddbd48f99e6d87e5d"),
    "blowfish": (
        112_649,
        "2d9c70f5cebcdb19edbb113242acd546e1c818d990176ef196ade8d8e0ea4b33"),
    "crc32": (
        101_388,
        "a3b1c1226a1a751a979612c6cb44a838a2e7161fe864e4ff091f983bb2321aeb"),
    "dijkstra": (
        120_320,
        "ada9afd5b753d533a1c38bb23014595fa4e01ffb860a633b7b15d5819b30a0f2"),
    "epic": (
        117_855,
        "2f666f909fbd11eacbf07e236b523005bd7e99e6d3345ae82f0773462fe9cd33"),
    "fft": (
        137_628,
        "93297ab35e81c40024bd844ec7d04ddb38f5331e161eb2931408631fff0449ae"),
    "g721": (
        298_775,
        "c757c3f5b55f0b0c74c0312db472fb6347b48481bb4b659ea4fe54fe7b3d9a9e"),
    "gsm": (
        154_418,
        "fbc35b1b367bc31086188acf98e89e9089b1e252fd9903e9796ad89d7b707929"),
    "ispell": (
        144_185,
        "30903752c2bc1224367ab149462cf6df9e41ca005ad6ec1813948d77e39b0c24"),
    "jpeg": (
        282_003,
        "3afffb9c5d3efd06abcfa84c96eb81febc3c6c6a4a3ff499d7e66e590ccf461d"),
    "lame": (
        76_393,
        "85dfc600d53ad83b7e502071c9b9ec4aabea116eda6f09e53c69d937b5647356"),
    "mpeg2dec": (
        189_506,
        "ca8f9e44ac83a22b9ea4a6811c13575621eba5b58ddf8163d6a28c82ae248066"),
    "patricia": (
        155_528,
        "6a9aa589610f481533598c0aacbfe5209deda1d3bfb114931b1b3424478eb08e"),
    "pegwit": (
        312_068,
        "b08df2afe92808ccc19f98b4df8fbaa92ff3200427f95597a21804cbfd95ad90"),
    "qsort": (
        144_780,
        "92ce6be911ee6c6fd5ad3bae3d19615fff4f2a2d773fa46bed78a54058e3b7c7"),
    "rijndael": (
        110_229,
        "42148168b29056159751f4ca9a5e2f6d883522a29f47028a36ef8fc7440a3a84"),
    "rsynth": (
        55_015,
        "f1531ac1c93564cbed1f516639661aab9b8a7714811b5791b028d153338cf4ad"),
    "sha": (
        127_553,
        "858e83703c6f48b34567059205bea35905fd0666d7915c50abeb7b121e7182b5"),
    "stringsearch": (
        141_396,
        "ebb7fb20b9da03cd745f7bf62a7c8265cd4f8bdcc39cf1d34f72f79ecc084d55"),
    "susan": (
        119_974,
        "5de5f28125cd5860d9707ce74f40949c7b7ea431e90b264ce439bb4752928706"),
    "typeset": (
        29_899,
        "a9165c5c5f79d020a878c3f8925eb65387656374e1bb3bd6258b735bb6ccb78d"),
}


def test_table_covers_the_corpus():
    assert sorted(PROFILE_DIGESTS) == sorted(workload_names())


@pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
def test_profile_digest(name):
    instructions, digest = PROFILE_DIGESTS[name]
    trace = run_program(build_workload(name))
    assert len(trace) == instructions
    text = json.dumps(profile_trace(trace).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
