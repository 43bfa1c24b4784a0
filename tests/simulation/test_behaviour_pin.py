"""Literal output hashes of the LP-free policies through both event-loop modes.

Every LP-free registered policy is run through :func:`repro.simulation.simulate`
on five scenarios × seeds 0–2, and through the
:class:`~repro.simulation.StreamingSimulator` on one load point at three
compaction thresholds.  The hashes were generated once and are compared
literally, so a refactor of the event loop, the window or a policy's
decision path must reproduce every schedule piece, event, completion time
and decision count bit for bit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.heuristics import make_scheduler
from repro.simulation import StreamingSimulator, simulate
from repro.workload import StreamSpec, make_scenario, open_stream

LP_FREE_POLICIES = (
    "fifo",
    "spt",
    "mct",
    "srpt",
    "greedy-weighted-flow",
    "round-robin",
    "deadline-driven",
)
SCENARIOS = ("bursty-batch", "hotspot", "replicated-portal", "small-cluster", "unrelated-stress")
SEEDS = (0, 1, 2)
COMPACT_MINS = (1, 64, 10**9)


def simulation_fingerprint(result) -> str:
    """sha256 over the pieces, events, completion times and decision count."""
    digest = hashlib.sha256()
    for piece in result.schedule.pieces:
        digest.update(
            f"{piece.job_index},{piece.machine_index},{piece.start.hex()},"
            f"{piece.end.hex()},{piece.fraction.hex()};".encode()
        )
    for event in result.events:
        digest.update(f"{event.time.hex()},{event.kind},{event.job_index};".encode())
    for job, time in sorted(result.completion_times.items()):
        digest.update(f"{job}:{time.hex()};".encode())
    digest.update(f"calls={result.num_scheduler_calls}".encode())
    return digest.hexdigest()


def simulate_fingerprint(policy: str, scenario: str, seed: int) -> str:
    result = simulate(make_scenario(scenario, seed), make_scheduler(policy))
    return simulation_fingerprint(result)


def stream_fingerprint(policy: str, compact_min: int) -> str:
    spec = StreamSpec(label="pin", scenario="small-cluster", seed=0).with_utilisation(0.7)
    result = StreamingSimulator(compact_min=compact_min).run(
        open_stream(spec), make_scheduler(policy), max_arrivals=1500
    )
    return result.fingerprint()


SIMULATE_HASHES = {
    "fifo": {
        "bursty-batch/0": "2e16020ee144722a6e02f69dd36f7943ccdf7bba9b2c375387d736a30beceb60",
        "bursty-batch/1": "abae7a6c1360770086ad6ac4aca8adb1cf604323e79aab25ed10b362b90740bb",
        "bursty-batch/2": "cc61da947198fa92be56fd9449a9648fe9ae787de04f89c9508a602e3922f8db",
        "hotspot/0": "06ac037b696db3cfb0512c3d0276a9411eec898a4470426627a2b481684e55eb",
        "hotspot/1": "767186d542a9b5749ed57ffefea8b2ce7673850e2d81eac6edbf7f4a11ad3243",
        "hotspot/2": "5a14c07d7bcb0a23775b1626e4732bfb66ffa12739661aa5a379c51ed0aec667",
        "replicated-portal/0": "6a04e14c9b69d6bc13823e48b7f756d586a5aa2309393568142669719cccaaa8",
        "replicated-portal/1": "083c10bfd24085c0200db4dd3d8ed344e110922c74c302f715cd0c42c1d6ff73",
        "replicated-portal/2": "c53f96c81ec681ce6653ed9851bfabd34e4563b27b18c1565a56231df25c0465",
        "small-cluster/0": "2a98ab4de6307d6599e42dbef9547ac5af249e2280dd1d9b61d9b3ed00f3d2f1",
        "small-cluster/1": "c6adbdbf2f00e3a3c1444e2405493d1a66251d39366785982411dc7b66012dd8",
        "small-cluster/2": "4f651056213f84e756540bbbf22dfea17e4090017eb5739d5531281e32f8f194",
        "unrelated-stress/0": "d484c7dcc5ce6393ec25b171458b633324b4efa0a8761febfe9638152bf01c1b",
        "unrelated-stress/1": "dbfae0c528c9fe0e7779ccc865c472ee53aa401b65ee9b7fed99bea46701ec1e",
        "unrelated-stress/2": "a2393462a8df664b69f23e832d2b1b97377e859f2ac63476181a6e1183d61ec8",
    },
    "spt": {
        "bursty-batch/0": "a78d31ac6b93b7ce21211ea9237a751aeb9e254db7f7496f2929dbeb1b5e2714",
        "bursty-batch/1": "a699d5929bfd611b7ee49e7b28a488796100d3312f18c199bec033884be0ea40",
        "bursty-batch/2": "1bb8e2681cea822effe3334ecdaa7413d8dd377a5973d331c06d9f55ed21c754",
        "hotspot/0": "f257df4f7ba50cefd1e965c37e73d30a16a51c06cae017135defe7d8b68ae657",
        "hotspot/1": "edfe028b034263aada40a9b0358a3f8ff84e5722b5b46739d5da5aebfdfb6b61",
        "hotspot/2": "e5aaf775616109fdcc89b4b78ea1372d0949a2d1124f97689d895ea3a40d41b3",
        "replicated-portal/0": "ca0adb75bc0eb3b53c845a30497975f506ae3e963b13a394888558e82d8c980b",
        "replicated-portal/1": "acc5dc08e4d4a22ba51910bbdd1ffd4741eb45de7428ff89d23593a4609070c0",
        "replicated-portal/2": "bc389093afc2c82909499266233a30ae0dbff0925b1fed24ad8f9f17b4e997a8",
        "small-cluster/0": "6fd225aa72f360138050013eb256e91a3d254ed1d16939f82ff2ea4d31dc49ec",
        "small-cluster/1": "19d808bbbe8e038173fde94176dd50a593d7bd90464d06a978be763bfc289f1c",
        "small-cluster/2": "2e0844eb5220592655cd7d67a675d0f5ed3e93b889297d79e5361aa3b724b6bf",
        "unrelated-stress/0": "8ca04d4c60c2976d92936f28256c48a3cf3ff8207746b429fb7bf139e28c36a8",
        "unrelated-stress/1": "5eb5b11a9240a868d61f42bfcb3443e0e8a19ecb8187a29af3ed209b42a64d8c",
        "unrelated-stress/2": "ac07e9116fe3c6acb1b33ef7f1def1e13ed88c69c9d5bba5c85aecacbc7d80d8",
    },
    "mct": {
        "bursty-batch/0": "e98b3afacb66cbcf64439e5b40ea4e2d1cbb8322c773f44307208cd18ce8a28e",
        "bursty-batch/1": "f0e5c2f55fb1a4e16f5efe9c72ae0d4fe75adba447da76e71978d9c3375a4a95",
        "bursty-batch/2": "f5533cecf1e5b028d5cdf0a056c8419a2f54a6fa8085204467e6f05977e68dec",
        "hotspot/0": "a2454aa8d56977631368117532789b2d189ff8cf52972d22f2086f54e53afdb3",
        "hotspot/1": "b40381bb732cad8646bdef1edd8363c70d650d27d40d6807a7a58f349f18c254",
        "hotspot/2": "0c7f2a53a3c821cbdef053d212d0124e419c1586c44667b78c59a811044c97f2",
        "replicated-portal/0": "96b54af797528ca9cd2eeef7005468c6419ef8e474a134817d2d4e8b9d883989",
        "replicated-portal/1": "f6ad7239dcb0e649502d5e1a4f7019caa6c7cabf3be9a92ba2f107b23a48bdb7",
        "replicated-portal/2": "393693b82e8561bc7bd6ee2675f970bdabf0758e71c9ad05f71626b8f8440499",
        "small-cluster/0": "2b08e87c312c3aa2beb7af2f2708eeb921d8710a06e53227edab3feb6d46d2a9",
        "small-cluster/1": "a44b1f80cd36d302490cb91eee4ffa4d07e8d073c3435c21fb26d2cde2298b02",
        "small-cluster/2": "4635e50861ac782aae92a858667584737d70b2b50ac1e57be56e68eb211f8f6d",
        "unrelated-stress/0": "f48e05a1dacffaa1330b434fe260ca93076c433e543ed6cb1c0f91c2c29c97ef",
        "unrelated-stress/1": "ff177d145d6d2fd98452a5868174ed2cda685ab798b15ae7bf40e1d5c7cef848",
        "unrelated-stress/2": "b2a68fb4d3932eded96929ea48466dd178c89c5e6a2bb48759a0a9c58e397af3",
    },
    "srpt": {
        "bursty-batch/0": "148c3a584639e4f3f16a2450306a4ffa594344802e18ddb52cddf97c1b489a04",
        "bursty-batch/1": "f41c5cdf9a51a0f874bcb9bfefcbf8dafdf34aedb389f88a7d8f45d121f7aa3d",
        "bursty-batch/2": "cea6a77f162d78d25d94d89948e32bf65437e100e528d0464f8be7d88054777a",
        "hotspot/0": "08f1bcbd6753cd7f6f2f46c3fd724519305a612ea1c56f6a3b45996c3359506e",
        "hotspot/1": "d418ca6d1ac04aa04c2958d3673c3be62c437d3c83bd8415c091f547b6895cff",
        "hotspot/2": "e0250adafef9d9fbc12029b476308e7f8d90e311ab07f658aa9b2b1ec756aae6",
        "replicated-portal/0": "b3b590425d2e7947ebe1bc33735df8ba21719cab5ec4d08c24c6ae710e07b42d",
        "replicated-portal/1": "1f0d99b4d9dd5d6bf14d50dc8c1a230b7c95907669a43dd442d09c606910c19d",
        "replicated-portal/2": "88959bf1b3d7ff7fcec2972ae87eda0a4c6f3d81d6b229a4e73535a13fdb2d2b",
        "small-cluster/0": "0f194ca7396edd87fe67929587aa3b14b48249f63fd0f8f1e9560d38e3557b07",
        "small-cluster/1": "9c64bb5b34021112157ca083819e9c2fdbdfe39f21442fbf6f13c03f05bf5249",
        "small-cluster/2": "974cbb3076b8a5d97f8480f508db750436a67fd4108b9a1956df81d672149358",
        "unrelated-stress/0": "5fff74af4b27da93d2763469c2ff1140833068af4270588fa5fffd7357e5a191",
        "unrelated-stress/1": "d976c98d78cb728a62d01877b8d20f2bd60d595952052999b6ebde60a2133aaf",
        "unrelated-stress/2": "72f8afde2dd022204d2d2bc74ace3ccb3a0420ed693f430f5e948c93cd6cbdce",
    },
    "greedy-weighted-flow": {
        "bursty-batch/0": "db88b2535231d4bb59ca2c0ce489d8dc6a7bc44f6c0bb791b2aa0c907d38ef27",
        "bursty-batch/1": "d8a6d268e0b2f8c4e2bd600743e0afea9029bd8d2893a692ea611ae68bf01acf",
        "bursty-batch/2": "6c680e019e020af9401234b6c4aa119eab790f219e355ec5c5f7540fd6150b96",
        "hotspot/0": "5420e1136761cf9a616d49601b4cf11229f06527e34071ec79264a5ec63ae1bb",
        "hotspot/1": "5fe7a81f8508682470009a3371ccfc29df4a7ac15eacba425774d4c03f878be8",
        "hotspot/2": "f26fce5c231af8fab8f0f1ce6faff30f67422e7749baabe37792621573c9853a",
        "replicated-portal/0": "53b3d91b2d113039b3c5a4c3fbb3a320a7129329feccb3ac14fcb94da9287a8c",
        "replicated-portal/1": "7a6c54c8c2dcbbfea7ea4d106f1e490d918e3c295e3dd8369b3032c5b449b9b9",
        "replicated-portal/2": "1f2823ee9c8cd7d15cfde4a3a9f4a8a88f6a337cbf984d36f26ec249214d3670",
        "small-cluster/0": "1b7839ba914a499c10ebf957dbfd5e5eb04d72c9c7adcf9828da9db147cc3292",
        "small-cluster/1": "e6641368e861c79869f7e3d5c83380554e6af7f5604d62492e7e81c40f8ab592",
        "small-cluster/2": "f412fec496935a48b984d5f6ddab16bf30eebdbd87df67c6df5ffd5976aa3afa",
        "unrelated-stress/0": "1e9e94a827bbf99901a2511db962e5508e3a1de35277ecd2a7a457db74a4874f",
        "unrelated-stress/1": "9c9caadeefd138cb2b0bac790d963bef3814f3d86963f9ebab5edf45ced102c7",
        "unrelated-stress/2": "900e4d30a369c3afd58d00965ed0a278b0ad6d5acbff29a495a0fa226d3b1cc4",
    },
    "round-robin": {
        "bursty-batch/0": "369c8c6154144ef7bea1a360bd6e17d726c65aaf064b8c66140d05a5d048661d",
        "bursty-batch/1": "791c22df36e5dafafa4ff265ec01e42b0ad45408de53f2fc02d2743166c43a5a",
        "bursty-batch/2": "7b4a88cf8f36939b9d0875d22cb084cd12d81c95da3796b5da06a109bd980871",
        "hotspot/0": "5ae51bf731dd12d7fb6648512d69d144b74348b8b2e069a8c60c49109961093c",
        "hotspot/1": "1db438a2181f8430ea05623527cbcde901b4585ad09d45423ffa6c8030659cf4",
        "hotspot/2": "6f013e43efdb41aa265d07db48f4a7ad8cc4667878fd61526ac7ca965dd2efd0",
        "replicated-portal/0": "d2128c87d559aae3c8d47da86740f861abdf35209e1f2609f4c807ea40ffba8c",
        "replicated-portal/1": "36f4d2e62c7c0899f7d654097be2c189a5db17285149ac1bac1e60860551fde8",
        "replicated-portal/2": "391e8f8d0501f2e48682eb5204408d6dd55a8e37aa6c78968fa4e8c4aae7bfe3",
        "small-cluster/0": "fc0f085a0460c030e1b28e8bb033a30cb7f7ba767af03aa003bfbf3120d7374e",
        "small-cluster/1": "a818ed96dc232fa5abc10cdc9451df38da4d3974172c8a64f07d2f1f49ed3b58",
        "small-cluster/2": "625de2d2a5607717f226c702dfc315ccef8ea481af9e045e9a41c73489b96cf9",
        "unrelated-stress/0": "148cdd448b827e039415cc3b18364934c7cc48585352e20ca35eb34092669a92",
        "unrelated-stress/1": "f719aba5baf39b80288436bc019793fad168d5435194fc9b13c8c6845b35ca5c",
        "unrelated-stress/2": "4d22184740a679eae8e7252eaffe19f0d6bb1e4161ca791984c1161e0e6926b5",
    },
    "deadline-driven": {
        "bursty-batch/0": "45d740869e42510a95d5805b5450ad884e18650e73ace5e087aa5aabf0afa137",
        "bursty-batch/1": "71e48b63241f6dceb01fbf737e0de70608f6e54de5357cf328344efb63c9019b",
        "bursty-batch/2": "82ebaa4c7cd0321618600217c75d1026e7d6b629da321a96391f6e300c5cdcb0",
        "hotspot/0": "08f1bcbd6753cd7f6f2f46c3fd724519305a612ea1c56f6a3b45996c3359506e",
        "hotspot/1": "d418ca6d1ac04aa04c2958d3673c3be62c437d3c83bd8415c091f547b6895cff",
        "hotspot/2": "e0250adafef9d9fbc12029b476308e7f8d90e311ab07f658aa9b2b1ec756aae6",
        "replicated-portal/0": "bd1eb09e4cd81ddcc6b53ccd528d3d51fc84dc6495e993cfbc87690330f335d3",
        "replicated-portal/1": "1f0d99b4d9dd5d6bf14d50dc8c1a230b7c95907669a43dd442d09c606910c19d",
        "replicated-portal/2": "88959bf1b3d7ff7fcec2972ae87eda0a4c6f3d81d6b229a4e73535a13fdb2d2b",
        "small-cluster/0": "0d3094a51bf1dc854f2f882593c6b06c6a43f13c8606fca15a1d20f1f98beabb",
        "small-cluster/1": "9c64bb5b34021112157ca083819e9c2fdbdfe39f21442fbf6f13c03f05bf5249",
        "small-cluster/2": "dc5b5f1454c5fa0aa9046189701221880f75688ca828a3d69767f268c7767ee1",
        "unrelated-stress/0": "078399d63674164ed060f09ca8f674288711578e76fd337abee9e3b52d3f6c23",
        "unrelated-stress/1": "78937e39869d91bd70af3c5e00c07258b1f5d9b3381f34e3816d59cadd56cd7a",
        "unrelated-stress/2": "797d3e4cdf4d6f2e84305b79886833afc3cabc0d5dfe46484b832616a3a0b13d",
    },
}

STREAM_HASHES = {
    "fifo": {
        "1": "c983c40c75a5bf73711608845418ad9e121f8221a4d1061715110bbebe68c1d8",
        "64": "814272024df227801e32ac7c2d200dabbd0fcb03bf833e3e9b4a171ff9288fd3",
        "1000000000": "cc42d0b41edab860e751e7c15fe72262c7d912f5c41fec64b057bef82b066a28",
    },
    "spt": {
        "1": "d5a14c81346826244cfd8cc922bf4dc1f4fd6af0b0804ba4f70e2742d1411e08",
        "64": "b96242d3b191489a21bccec9db24f9c015b79a57ea26641baa41552ff8d3f3c3",
        "1000000000": "86f65e998b854cbf0e8c081843d289d7d783f86a63b93610bd24f5cc44fda49d",
    },
    "mct": {
        "1": "ac168ca186de1a35de910d3f476d814884d454db867254cf5e0a3693b6108559",
        "64": "96e6c181fc848898f10d7984356637e6a4c8ef409a3417ce099a4648a1594f54",
        "1000000000": "0c7d59d81be95a902abb01f7121106148c635f28a365498bba186bc58ac0c74f",
    },
    "srpt": {
        "1": "52105ed6234f428cd0bd1378bb8d75900a184d8ebcbbf705b9d168ad6b53c958",
        "64": "c7dd5102a537e9a90da3388a1c3f03655d85102799b3cb7ac1c8b46b887cbd19",
        "1000000000": "7f05f323a54cc3e4b5c411c9f691394cfb729fdabbbf64aad0a8463ca91a095a",
    },
    "greedy-weighted-flow": {
        "1": "d8bffb07b34a6efcc302376aef721878590c856bc5beabea49202b38ed96eb38",
        "64": "0a5a4a862898bd516b19abac642f3a986eebd31cbdc6ec9a98abf601c77cd421",
        "1000000000": "39af9018d064f5d6e21dedf4f5e827b71214195027c80f54a8f144909130349f",
    },
    "round-robin": {
        "1": "b677ed9991a99f094a971f2112365b489adef15b033aa3e471e30189f4eb90b2",
        "64": "5d8e3b212b84f338f354ea7ff873f948cf49b7dc3962f070d142376c393b8e7e",
        "1000000000": "e177351b1953b6b05a64694b6aa9181ca69a50a5c3a7b29cc22130b6df14a204",
    },
    "deadline-driven": {
        "1": "186fbecc054b677b506edd0cc7e36292758ed9d9acb8e795b775d2d7840041c8",
        "64": "669991073ce61763050329006d94605c1e961082dcde8596ccf7cf73cd1d5e9c",
        "1000000000": "c9af1f2e4b3bfff2c0366fcef3d6e6fd0dc2cba8cfd9d4e9068d77cf59df3672",
    },
}

LP_TARGETS_HASH = "e4712dea42fdf2c1b2e5301e5bda0ddd0efbbec5b8e9f4c2b1ca32754f7940ec"


@pytest.mark.parametrize("policy", LP_FREE_POLICIES)
def test_simulate_outputs_are_pinned(policy):
    observed = {
        f"{scenario}/{seed}": simulate_fingerprint(policy, scenario, seed)
        for scenario in SCENARIOS
        for seed in SEEDS
    }
    assert observed == SIMULATE_HASHES[policy]


@pytest.mark.parametrize("policy", LP_FREE_POLICIES)
def test_stream_fingerprints_are_pinned(policy):
    observed = {str(c): stream_fingerprint(policy, c) for c in COMPACT_MINS}
    assert observed == STREAM_HASHES[policy]


def test_lp_targets_output_is_pinned():
    observed = simulate_fingerprint("deadline-driven:lp_targets=true", "small-cluster", 0)
    assert observed == LP_TARGETS_HASH
