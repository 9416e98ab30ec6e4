"""Model-based check of the weaver's single stub-on-demand path.

Random scripts of calls, field writes, inserts and withdrawals run
against one loaded class and a trivial model of what must happen:

- every call returns ``x + index`` and every write stores its value,
  advised or not;
- each recorder sees exactly the calls (or writes) made while it was
  inserted, in order;
- whenever no aspect is inserted, the class dict holds the same keys and
  the same objects as before ``load_class`` — unadvised classes are
  pristine — and unloading the class restores it in any state.
"""

from hypothesis import given, strategies as st

from repro.aop import Aspect, FieldWriteCut, MethodCut, ProseVM
from repro.aop.advice import AdviceKind

METHODS = ("alpha", "beta", "gamma")
FIELD = "value"


def make_app_class():
    namespace = {}
    for index, name in enumerate(METHODS):
        exec(  # noqa: S102 - test scaffolding
            f"def {name}(self, x):\n    return x + {index}", namespace
        )
    return type("App", (), namespace)


class Recorder(Aspect):
    """Records the join points it advises: a method name or ``FIELD``."""

    def __init__(self, target):
        super().__init__()
        self.target = target
        self.seen = []
        if target == FIELD:
            cut = FieldWriteCut(type="App", field=FIELD)
            self.add_advice(AdviceKind.BEFORE, cut, self.record_write)
        else:
            cut = MethodCut(type="App", method=target)
            self.add_advice(AdviceKind.BEFORE, cut, self.record_call)

    def record_call(self, ctx):
        self.seen.append((ctx.method_name, ctx.args))

    def record_write(self, ctx):
        self.seen.append((ctx.field, (ctx.new_value,)))


TARGETS = METHODS + (FIELD,)

# A script: list of (action, target, value); "call" on FIELD is a write.
scripts = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.sampled_from(TARGETS), st.integers(-5, 5)),
        st.tuples(st.just("insert"), st.sampled_from(TARGETS), st.just(0)),
        st.tuples(st.just("withdraw"), st.integers(0, 5), st.just(0)),
    ),
    max_size=25,
)


class TestSingleWeaverModel:
    @given(scripts)
    def test_results_traces_and_pristine_dict(self, script):
        vm = ProseVM()
        cls = make_app_class()
        pristine = dict(vars(cls))
        vm.load_class(cls)
        app = cls()
        inserted = []  # every recorder ever inserted, in order
        expected = {}  # recorder -> the trace the model predicts
        for action, target, value in script:
            if action == "call":
                if target == FIELD:
                    setattr(app, FIELD, value)
                    assert app.value == value
                else:
                    assert getattr(app, target)(value) == value + METHODS.index(target)
                for recorder in inserted:
                    if vm.is_inserted(recorder) and recorder.target == target:
                        expected[recorder].append((target, (value,)))
            elif action == "insert":
                recorder = Recorder(target)
                vm.insert(recorder)
                inserted.append(recorder)
                expected[recorder] = []
            elif action == "withdraw" and inserted:
                recorder = inserted[target % len(inserted)]
                if vm.is_inserted(recorder):
                    vm.withdraw(recorder)
            if not vm.aspects:
                assert dict(vars(cls)) == pristine
                assert all(vars(cls)[k] is v for k, v in pristine.items())
        for recorder in inserted:
            assert recorder.seen == expected[recorder]
        vm.unload_class(cls)
        assert dict(vars(cls)) == pristine
